"""The three operation families the benchmark times, with their output checks.

``paper``
    ``repro --seed S --workers auto report --out F`` and the same with
    ``--workers 1``, one report a step in ABBA order.  Each report simulates
    both chains, attributes them, builds all 14 figures, the findings and
    the anomaly/event scans, and renders markdown.  It is the only family
    that drives simulation, attribution, the engine's calendar and sliding
    sweeps and the sharded attribution/engine paths.
``monitor``
    ``repro --seed S monitor --chain ethereum --window 6000 --blocks
    80000`` (push-bound: one evaluation per 3,000 pushes) and ``repro
    --seed S monitor --chain bitcoin --alert-above entropy=4.5 --anomaly
    gini`` (the full year at N=144/M=72 with the flags the docs use, so it
    evaluates and runs alerts every 72 blocks).  It applies the metric
    kernels one window at a time and never touches attribution, the engine
    or the pools.
``sql``
    An analyst session over ``btc_blocks``, ``btc_credits``,
    ``eth_blocks`` and ``eth_credits`` on ``QueryEngine(catalog,
    workers="auto")``, the default ``repro query`` uses, after ``ANALYZE``
    and a ``sorted`` index on each ``*_blocks.height``.  Its BTC group-by
    (54,725 rows) and ETH group-by (2.2M rows) sit on either side of the
    parallel group-by's 50k-row cutoff in cost, and its set-up is the
    write side (statistics, index builds).

Every operation goes through a public entry point: ``repro.cli.main`` for
``report`` and ``monitor``, ``QueryEngine`` for SQL.  Checks run outside
the timed region; an operation counts as failed on an exception, a
nonzero exit or a mismatch:

* a report must hold all 14 figure sections, Fig. 8's window counts must
  equal ``L = (S-N)/M + 1`` for all six (chain, N) pairs, and the
  ``auto`` report must equal the ``--workers 1`` report byte for byte;
* a monitor summary's evaluation count must equal ``(B-N)//M + 1`` and
  its ``latest:`` values must equal ``measure_sliding_many`` at that
  window index to the 4 printed decimals (the legacy ``ALERT`` count is
  deliberately not pinned);
* every SQL result must equal the same SQL on a reference
  ``QueryEngine(catalog, workers=1, optimizer=False)``.
"""

from __future__ import annotations

import io
import random
import re
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

FIGURES = tuple(f"fig{i}" for i in range(1, 15))
MONITOR_METRICS = ("entropy", "gini", "nakamoto")
#: Chain key -> (chain name, window N, blocks replayed or None for the year).
MONITOR_RUNS = {
    "eth": ("ethereum", 6000, 80_000),
    "btc": ("bitcoin", 144, None),
}
MONITOR_FLAGS = {
    "eth": [],
    "btc": ["--alert-above", "entropy=4.5", "--anomaly", "gini"],
}

SQL_QUERIES = {
    "join": (
        "SELECT b.primary_producer, COUNT(*) AS n FROM btc_blocks b "
        "JOIN btc_credits c ON b.height = c.height "
        "WHERE c.n_producers > 1 GROUP BY b.primary_producer"
    ),
    "btc_groupby": (
        "SELECT producer, COUNT(*) AS n FROM btc_credits "
        "GROUP BY producer ORDER BY n DESC LIMIT 20"
    ),
    "eth_groupby": (
        "SELECT producer, COUNT(*) AS n FROM eth_credits "
        "GROUP BY producer ORDER BY n DESC LIMIT 20"
    ),
    "eth_distinct": (
        "SELECT COUNT(DISTINCT producer) AS k, MEDIAN(timestamp) AS m FROM eth_credits"
    ),
}
POINT_QUERY = "SELECT height, primary_producer FROM {chain}_blocks WHERE height = {height}"
SQL_KINDS = ("point", "join", "btc_groupby", "eth_groupby", "eth_distinct")
#: Queries of each kind in consecutive sql steps, repeating; point lookups
#: alternate chains.  The short kinds run in every step, so their samples
#: spread over the whole run; each 2.2M-row kind runs every fourth step.
SQL_STEPS = (
    {"point": 7, "join": 2, "btc_groupby": 2, "eth_groupby": 1},
    {"point": 7, "join": 2, "btc_groupby": 2},
    {"point": 7, "join": 2, "btc_groupby": 2, "eth_distinct": 1},
    {"point": 7, "join": 2, "btc_groupby": 2},
)


def abba(index: int, first: str, second: str) -> str:
    """``first, second, second, first, ...``: either order runs equally often."""
    return first if index % 4 in (0, 3) else second


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problem: str | None, what: str) -> bool:
        """Count one operation; ``problem`` is None when it succeeded."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        self.reasons.append(f"{what}: {problem}")
        print(f"FAILED {what}: {problem}", file=sys.stderr)
        return False


def run_cli(argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """``repro.cli.main(argv)`` with its output captured.

    Returns ``(seconds, exit code, stdout, error)``; ``error`` holds the
    traceback when ``main`` raised (the exit code is then None).
    """
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            return time.perf_counter() - start, None, out.getvalue(), traceback.format_exc()
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), None


def _cli_problem(code: int | None, error: str | None) -> str | None:
    if error is not None:
        return f"raised {error.strip().splitlines()[-1]}"
    if code != 0:
        return f"exit code {code}"
    return None


# -- paper -------------------------------------------------------------------


def check_report(text: str) -> str | None:
    """Why a report is wrong (missing figures, bad Fig. 8 counts), or None."""
    missing = [f for f in FIGURES if f"\n### {f}: " not in text]
    if missing:
        return f"missing figure sections {missing}"
    sizes = {
        name[:3]: int(count.replace(",", ""))
        for name, count in re.findall(r"^\| (bitcoin|ethereum) \| ([\d,]+) \|", text, re.M)
    }
    counts = re.findall(r"`(btc|eth)_L_N=(\d+)` = (\d+)", text)
    if len(counts) != 6 or set(sizes) != {"bit", "eth"}:
        return f"expected 6 Fig. 8 window counts and 2 dataset rows, got {counts} {sizes}"
    for chain, size, count in counts:
        blocks = sizes["bit" if chain == "btc" else "eth"]
        n, m = int(size), int(size) // 2
        if int(count) != (blocks - n) // m + 1:
            return f"Fig. 8 {chain} N={n}: L={count}, expected {(blocks - n) // m + 1}"
    return None


class Paper:
    """``report`` at ``--workers auto`` and ``--workers 1``."""

    def __init__(self, seed: int, out_dir: Path, begin: Callable[[str, str], None]) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.begin = begin
        self.seconds: dict[str, list[float]] = {"auto": [], "1": []}
        self._texts: dict[str, str] = {}

    def step(self, index: int, tally: Tally) -> None:
        """One report; steps take ``auto`` and ``1`` in ABBA order, so drift cancels."""
        self.report(abba(index, "auto", "1"), str(index), tally)

    def warm_up(self) -> None:
        """One untimed ``--workers 1`` report: a process's first report runs slower."""
        self.report("1", "warm-up", Tally())
        self.seconds["1"].clear()

    def report(self, workers: str, label: str, tally: Tally) -> None:
        """One ``report --workers <workers>``, timed and checked."""
        path = self.out_dir / f"report-{workers}.md"
        path.unlink(missing_ok=True)
        self.begin("paper_auto" if workers == "auto" else "paper_serial", label)
        seconds, code, _, error = run_cli(
            ["--seed", str(self.seed), "--workers", workers, "report", "--out", str(path)]
        )
        problem = _cli_problem(code, error)
        if problem is None and not path.is_file():
            problem = f"no report written to {path.name}"
        if problem is None:
            self._texts[workers] = path.read_text(encoding="utf-8")
            problem = check_report(self._texts[workers])
        if problem is None and len(self._texts) == 2 and self._texts["auto"] != self._texts["1"]:
            problem = "--workers auto report differs from --workers 1"
        if tally.record(problem, f"report --workers {workers}"):
            self.seconds[workers].append(seconds)


# -- monitor -----------------------------------------------------------------


def monitor_expectation(
    chain, window: int, blocks: int | None
) -> tuple[int, int, str | None]:
    """``(blocks, evaluations, latest line)`` the monitor summary must show.

    The latest line is None when the offline sweep has no window at the
    monitor's last evaluation index; every summary then fails the check.
    """
    from repro.core.engine import MeasurementEngine

    total = chain.n_blocks if blocks is None else min(blocks, chain.n_blocks)
    stride = window // 2
    evaluations = (total - window) // stride + 1
    engine = MeasurementEngine.from_chain(chain, workers=1)
    sweep = engine.measure_sliding_many(MONITOR_METRICS, window, stride, workers=1)
    latest = {}
    for name, series in sweep.items():
        positions = list(series.indices)
        if evaluations - 1 not in positions:
            return total, evaluations, None
        latest[name] = float(series.values[positions.index(evaluations - 1)])
    text = ", ".join(f"{name}={value:.4f}" for name, value in sorted(latest.items()))
    return total, evaluations, text


def check_monitor(output: str, expected: tuple[int, int, str | None]) -> str | None:
    """Why a monitor summary disagrees with the offline sweep, or None."""
    blocks, evaluations, latest = expected
    if latest is None:
        return f"the offline sweep has no window {evaluations - 1}"
    summary = re.search(r"^monitored (\d+) blocks: (\d+) evaluations", output, re.M)
    shown = re.search(r"^latest: (.*)$", output, re.M)
    if summary is None or shown is None:
        return "no monitor summary in the output"
    if (int(summary[1]), int(summary[2])) != (blocks, evaluations):
        return (
            f"monitored {summary[1]} blocks / {summary[2]} evaluations, "
            f"expected {blocks} / {evaluations}"
        )
    if shown[1] != latest:
        return f"latest {shown[1]!r}, expected {latest!r}"
    return None


class Monitor:
    """The ETH push-bound replay and the BTC alerting replay."""

    def __init__(
        self,
        seed: int,
        expected: dict[str, tuple[int, int, str | None]],
        begin: Callable[[str, str], None],
        blocks: dict[str, int | None],
    ) -> None:
        self.seed = seed
        self.expected = expected
        self.begin = begin
        self.blocks = blocks
        #: Wall seconds of each successful command, per chain.
        self.seconds: dict[str, list[float]] = {"eth": [], "btc": []}

    def argv(self, key: str) -> list[str]:
        name, window, _ = MONITOR_RUNS[key]
        argv = ["--seed", str(self.seed), "monitor", "--chain", name, "--window", str(window)]
        if self.blocks[key] is not None:
            argv += ["--blocks", str(self.blocks[key])]
        return argv + MONITOR_FLAGS[key]

    def step(self, index: int, tally: Tally) -> None:
        """One command; steps take ETH and BTC in ABBA order, so drift cancels."""
        key = abba(index, "eth", "btc")
        self.begin(f"monitor_{key}", str(index))
        seconds, code, output, error = run_cli(self.argv(key))
        problem = _cli_problem(code, error)
        if problem is None:
            problem = check_monitor(output, self.expected[key])
        if tally.record(problem, f"monitor {key}"):
            self.seconds[key].append(seconds)


# -- sql ---------------------------------------------------------------------


class World:
    """The sql family's catalog, tuned engine and reference engine.

    ``expected`` caches the reference engine's rows by SQL text.  Worlds
    built from one seed hold equal tables, so they may share the cache:
    a traced run fills it in untraced passes and its traced pass then
    never runs the reference engine.
    """

    def __init__(self, seed: int, expected: dict[str, list[dict]] | None = None) -> None:
        from repro.analysis.study import DecentralizationStudy
        from repro.sql import QueryEngine

        study = DecentralizationStudy(seed=seed)
        self.chains = {key: study.chain(key) for key in ("btc", "eth")}
        catalog = {}
        for key, chain in self.chains.items():
            catalog[f"{key}_blocks"] = chain.block_table()
            catalog[f"{key}_credits"] = chain.to_table()
        self.engine = QueryEngine(catalog, workers="auto")
        self.engine.analyze()
        for key in self.chains:
            self.engine.create_index(f"{key}_blocks", "height", "sorted")
        self.reference = QueryEngine(catalog, workers=1, optimizer=False)
        self._expected = {} if expected is None else expected

    def expected(self, sql: str) -> list[dict]:
        """The reference engine's rows for ``sql`` (cached)."""
        if sql not in self._expected:
            self._expected[sql] = self.reference.execute(sql).to_rows()
        return self._expected[sql]


class Sql:
    """Point lookups, the multi-coinbase join, two group-bys and a distinct."""

    def __init__(
        self,
        world: World,
        seed: int,
        begin: Callable[[str, str], None],
        steps: tuple[dict[str, int], ...] = SQL_STEPS,
    ) -> None:
        self.world = world
        self.rng = random.Random(seed)
        self.begin = begin
        self.steps = steps
        self.ms: dict[str, list[float]] = {kind: [] for kind in SQL_KINDS}
        self._points = 0

    def point_sql(self) -> str:
        """A point lookup at a seeded height, alternating chains."""
        key = "btc" if self._points % 2 == 0 else "eth"
        chain = self.world.chains[key]
        self._points += 1
        height = self.rng.randint(chain.start_height, chain.end_height)
        return POINT_QUERY.format(chain=key, height=height)

    def kind_sql(self, kind: str) -> str:
        return self.point_sql() if kind == "point" else SQL_QUERIES[kind]

    def query(self, kind: str, sql: str, tally: Tally | None, label: str) -> float | None:
        """Time one query and check it; returns milliseconds, None on failure."""
        self.begin(f"sql_{kind}", label)
        start = time.perf_counter()
        try:
            result = self.world.engine.execute(sql)
            ms: float | None = (time.perf_counter() - start) * 1000
            same = result.to_rows() == self.world.expected(sql)
        except Exception:
            problem: str | None = f"raised {traceback.format_exc().strip().splitlines()[-1]}"
            ms = None
        else:
            problem = None if same else "rows differ from the reference"
        if tally is None:
            return ms
        return ms if tally.record(problem, f"sql {kind} {sql!r}") else None

    def warm_up(self) -> None:
        """Run every kind once untimed: first executions run slower."""
        for kind in SQL_KINDS:
            self.query(kind, self.kind_sql(kind), None, "warm-up")

    def step(self, index: int, tally: Tally) -> None:
        """The queries of step ``index`` of the schedule, kinds taking turns."""
        left = dict(self.steps[index % len(self.steps)])
        while left:
            for kind in list(left):
                ms = self.query(kind, self.kind_sql(kind), tally, str(index))
                if ms is not None:
                    self.ms[kind].append(ms)
                left[kind] -= 1
                if not left[kind]:
                    del left[kind]
