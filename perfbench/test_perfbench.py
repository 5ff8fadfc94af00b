"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import stats  # noqa: E402


# -- self-time arithmetic ----------------------------------------------------


def _synthetic(recorder: layers.Recorder, spans: list[tuple[str, int, float, float]]) -> None:
    """Append (name, parent, start, end) spans directly to the store."""
    for name, parent, start, end in spans:
        recorder.span_name.append(recorder.names.index(name))
        recorder.span_parent.append(parent)
        recorder.span_op.append(-1)
        recorder.span_start.append(start)
        recorder.span_end.append(end)


def test_self_time_of_nested_tree():
    recorder = layers.Recorder()
    # report [0,10] > figures [1,4], findings [5,9] > compute_batch [6,7];
    # a second top-level report [11,12].
    _synthetic(recorder, [
        ("analysis.report", -1, 0.0, 10.0),
        ("analysis.figures", 0, 1.0, 4.0),
        ("analysis.findings", 0, 5.0, 9.0),
        ("metrics.compute_batch", 2, 6.0, 7.0),
        ("analysis.report", -1, 11.0, 12.0),
    ])
    cols = recorder.arrays()
    selfs = layers.self_times(cols["parent"], cols["start"], cols["end"])
    assert selfs.tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    totals = layers.span_totals(recorder)
    assert totals["analysis.report"] == {"calls": 2, "self_s": 4.0, "total_s": 11.0}
    values = layers.layer_metrics(recorder, wall_s=13.0, untraced_s=10.0, rows_scanned={})
    assert values["unattributed_s"] == pytest.approx(2.0)
    summed = sum(t["self_s"] for t in totals.values())
    assert summed + values["unattributed_s"] == pytest.approx(13.0)
    assert values["trace_overhead"] == pytest.approx(0.3)


def test_wrappers_record_parents_and_ops():
    recorder = layers.Recorder()
    inner = recorder.wrap("metrics.compute_batch", lambda x: x + 1)
    outer = recorder.wrap("streaming.push", lambda x: inner(x) * 2)
    recorder.begin_op("monitor_eth", "0")
    assert outer(1) == 4
    recorder.end_op()
    assert outer(2) == 6
    cols = recorder.arrays()
    assert cols["parent"].tolist() == [-1, 0, -1, 2]
    assert cols["op"].tolist() == [0, 0, -1, -1]
    assert np.all(cols["end"] >= cols["start"])
    assert layers._evaluating_pushes(recorder)[0] == 2


def test_every_patched_attribute_is_restored():
    def current():
        return {
            (path, attr): vars(layers._resolve(path))[attr]
            for targets in layers.WRAPPED.values()
            for path, attr in targets
        }

    before = current()
    with pytest.raises(RuntimeError):
        with layers.Recorder():
            during = current()
            assert all(during[key] is not before[key] for key in before)
            raise RuntimeError("traced code failed")
    after = current()
    assert all(after[key] is before[key] for key in before)


# -- percentiles and names ---------------------------------------------------


def test_nearest_rank_percentiles_with_counts():
    samples = [float(v) for v in range(100, 0, -1)]
    assert stats.nearest_rank(samples, 50) == 50.0
    assert stats.nearest_rank(samples, 90) == 90.0
    assert stats.nearest_rank([7.0], 50) == 7.0
    assert stats.percentile_with_count(samples, 90) == (90.0, 100)
    with pytest.raises(ValueError):
        stats.percentile_with_count(samples[:99], 90)  # only 9 beyond the p90
    assert run._summary(samples, 90, "p90") == (90.0, "p90 of 100 samples")


def test_too_few_samples_are_reported_not_raised():
    value, note = run._summary([float(v) for v in range(1, 100)], 90, "p90")
    assert value == 90.0 and "too few samples" in note
    assert run._summary([], 50, "p50") == (0.0, "p50 of no samples")
    assert run._mean([1.0, 2.0, 6.0]) == (3.0, "mean of 3 samples")
    assert run._mean([]) == (0.0, "mean of no samples")


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [*end_to_end, *per_layer, *run.WORKLOADS]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# -- corrupted outputs count as failed operations -----------------------------


def _report_text() -> str:
    figures = "\n".join(f"\n### fig{i}: title\n" for i in range(1, 15))
    fig8 = "\n".join(
        f"* `{chain}_L_N={n}` = {(blocks - n) // (n // 2) + 1}"
        for chain, blocks, sizes in (
            ("btc", 54231, (144, 1008, 4320)),
            ("eth", 2204650, (6000, 42000, 180000)),
        )
        for n in sizes
    )
    return (
        "| bitcoin | 54,231 | 1..2 | 9 |\n| ethereum | 2,204,650 | 1..2 | 9 |\n"
        + figures + "\n" + fig8 + "\n"
    )


def test_report_checks():
    text = _report_text()
    assert families.check_report(text) is None
    assert "fig9" in families.check_report(text.replace("### fig9:", "### fig 9:"))
    assert "L=" in families.check_report(text.replace("= 752", "= 751"))


def test_flipped_report_byte_is_a_failed_operation(tmp_path, monkeypatch):
    good = _report_text()
    flipped = good[:40] + chr(ord(good[40]) ^ 1) + good[41:]

    def fake_cli(argv):
        workers = argv[argv.index("--workers") + 1]
        Path(argv[argv.index("--out") + 1]).write_text(flipped if workers == "auto" else good)
        return 0.5, 0, "", None

    monkeypatch.setattr(families, "run_cli", fake_cli)
    tally = families.Tally()
    paper = families.Paper(1, tmp_path, runner.untimed)
    paper.step(1, tally)  # --workers 1
    paper.step(3, tally)  # --workers auto, one byte flipped
    assert (tally.attempted, tally.failed) == (2, 1)
    assert paper.seconds == {"auto": [], "1": [0.5]}
    monkeypatch.setattr(families, "run_cli", lambda argv: (0.5, 0, "", None))
    paper.report("1", "2", tally)  # exit code 0, but no report written
    assert (tally.attempted, tally.failed) == (3, 2)


def test_altered_sql_row_is_a_failed_operation():
    from repro.sql import QueryEngine
    from repro.table import Table

    class World:
        engine = QueryEngine({"t": Table({"x": [1, 2, 3]}), "u": Table({"y": [1]})})
        reference = QueryEngine({"t": Table({"x": [1, 2, 4]})})
        expected = families.World.expected
        _expected: dict = {}

    sql = families.Sql(World(), 1, runner.untimed)
    tally = families.Tally()
    assert sql.query("join", "SELECT x FROM t WHERE x < 3", tally, "0") is not None
    assert sql.query("join", "SELECT x FROM t", tally, "0") is None
    # A reference engine that raises is a failed operation, not a crash.
    assert sql.query("join", "SELECT y FROM u", tally, "0") is None
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "raised" in tally.reasons[-1]


def test_altered_monitor_summary_is_a_mismatch():
    output = "monitored 3000 blocks: 41 evaluations, 0 alerts\nlatest: entropy=1.0000, gini=0.5000\n"
    expected = (3000, 41, "entropy=1.0000, gini=0.5000")
    assert families.check_monitor(output, expected) is None
    assert families.check_monitor(output.replace("0.5000", "0.5001"), expected)
    assert families.check_monitor(output.replace("41 eval", "40 eval"), expected)


def test_missing_offline_window_is_a_failed_check_not_a_crash():
    from repro.analysis.study import DecentralizationStudy

    chain = DecentralizationStudy(seed=1).chain("btc")
    # Fewer blocks than the window: no evaluation index the sweep has.
    blocks, evaluations, latest = families.monitor_expectation(chain, 144, 100)
    assert latest is None
    problem = families.check_monitor("monitored 100 blocks: 0 evaluations\n", (blocks, evaluations, latest))
    assert "no window" in problem


def test_steps_take_turns(monkeypatch):
    assert [families.abba(i, "auto", "1") for i in range(8)] == ["auto", "1", "1", "auto"] * 2
    ran: list[str] = []
    monkeypatch.setattr(families.Sql, "kind_sql", lambda self, kind: kind)
    monkeypatch.setattr(
        families.Sql, "query", lambda self, kind, sql, tally, label: ran.append(kind) or 1.0
    )
    sql = families.Sql(None, 1, runner.untimed)
    for index in range(len(families.SQL_STEPS)):
        sql.step(index, families.Tally())
    assert {kind: ran.count(kind) for kind in families.SQL_KINDS} == {
        "point": 28, "join": 8, "btc_groupby": 8, "eth_groupby": 1, "eth_distinct": 1,
    }
    assert ran[:5] == ["point", "join", "btc_groupby", "eth_groupby", "point"]


def test_zero_predictions_cover_the_named_layers():
    assert "parallel.pools" not in layers.zero_predictions("paper")
    assert "parallel.pools_serial" in layers.zero_predictions("paper")
    assert "parallel.pools_monitor" in layers.zero_predictions("paper")
    assert "obs.history.calls" in layers.zero_predictions("sql")
    assert "obs.history.calls" not in layers.zero_predictions("paper")
    assert "sql.execute.self_s" in layers.zero_predictions("paper")
    assert "sql.execute.self_s" not in layers.zero_predictions("sql")


# -- end to end ----------------------------------------------------------------


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    expected = run.END_TO_END if trace == "0" else {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "labels: " in done.stdout
    if (workload, trace) == ("sql", "1"):
        # The output check's reference engine stays out of the traced pass.
        spans = np.load(ROOT / ".perfbench_out" / "trace-sql-seed5.npz")
        executes = int((spans["name"] == list(spans["names"]).index("sql.execute")).sum())
        queries = sum(kind.startswith("sql_") and kind != "sql_setup" for kind in spans["op_kinds"])
        assert executes == queries > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
