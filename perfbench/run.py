"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0|1``, run from the root of a checkout.

The benchmark is the load generator: one thread, closed loop (each
operation starts when the previous one returned), no ``--serve``.  The
program keeps its default ``--workers auto`` unless an operation says
otherwise.  The seed drives the simulated chains and the point-lookup
heights; the program only sees those inputs.

Workloads and why they exist
----------------------------
Three operation families exercise disjoint layer sets (see
:mod:`families` for the exact commands and output checks):

``paper``    the paper itself: both chains simulated, attributed, 14
             figures, findings, scans, markdown, at ``--workers auto``
             and ``--workers 1``.  The only family that drives
             simulation, attribution, the engine sweeps and the sharded
             attribution/engine paths, and where the default loses to
             serial today.
``monitor``  the online use: the sliding-window monitor replaying ETH
             (push-bound) and BTC (evaluates and alerts every 72 blocks).
             It never touches attribution, the engine or the pools, so
             paper-side changes should leave it unchanged.
``sql``      an analyst session; the only family for ``repro.sql`` and
             ``repro.table``, with the parallel group-by on both sides of
             its cost cutoff, and set-up (statistics, index builds) as the
             write side.

There are two workloads.  ``paper`` is the paper's offline pipeline and
its online use, the two ``repro`` commands: its set-up and memory are a
report process's, and its traced run covers the ``paper`` and
``monitor`` families.  ``sql`` is the analyst session: its set-up is the
catalog build, and its traced run covers the ``sql`` family.  (A third
workload for the monitor alone would run the same untraced cycle; the
time all runs may take then leaves each run too few samples to be
steady on this kind of shared host, see ``CHANGES.md``.)

An untraced run must report every end-to-end metric, so every workload
runs all three families.  Each family lives in a process of its own
(:mod:`runner`), which this process drives one step at a time: a cycle
is one report, one sql step, one monitor command and another sql step
(reports alternate ``auto`` and ``1``, monitor commands ETH and BTC, in
ABBA order), and cycles repeat until ``--seconds`` have passed and at
least :data:`MIN_CYCLES` ran.  Interleaving spreads each metric's
samples over the whole run, so a slow spell of a shared host never lands
on one metric alone.  The cycle is the same on every workload; the
workload picks the family whose set-up and memory ``setup_s`` and
``peak_rss_mb`` report, and the families its traced run covers.

End-to-end metrics (untraced runs)
----------------------------------
``setup_s``         median over :data:`SETUP_SAMPLES` fresh processes of the
                    workload's family of the time from starting the process
                    until it can run its first operation: the CLI's
                    imports, and for ``sql`` also simulating both chains,
                    building the four tables, ``ANALYZE`` and two sorted
                    indexes.
``peak_rss_mb``     peak resident memory of the workload's family process.
``paper_s``         mean wall time of one ``report`` at ``auto``: the run's
                    summed report time over its reports.
``paper_serial_s``  the same at ``--workers 1``: the single-worker
                    baseline the default must never lose to.
``monitor_eth_blocks_per_s``  80,000 blocks per ETH command over the
                    commands' summed wall time, in-command simulation
                    included: work completed per second.
``monitor_btc_blocks_per_s``  the BTC year's blocks per command, likewise.
``sql_point_ms_mean``, ``sql_join_ms_mean``, ``sql_btc_groupby_ms_mean``,
``sql_eth_groupby_ms_mean``, ``sql_eth_distinct_ms_mean``  mean latency of
                    one query kind over the run, printed with its count.
``sql_point_ms_p90``  the nearest-rank p90 of the point lookups, with at
                    least 10 samples beyond it.

Timings are means (work completed per second, inverted), not medians:
on a host whose cores switch between two speeds some 1.5x apart for
seconds at a time, a run's samples of one operation fall in two clusters,
and their median jumps from one cluster to the other as the share of
slow samples crosses one half, while their mean moves in proportion.

Each family warms up before its first timed step: every sql query kind
runs once, and the paper process makes one ``--workers 1`` report.

A traced run (``--trace 1``) runs its families in this process twice
untraced (a warm-up, then the baseline for ``trace_overhead``), then once
more with the wrappers of :mod:`layers` installed, and reports every
per-layer metric; :mod:`layers` documents the layer -> metric -> workload
map and the no-change predictions the run checks.  Spans are written to
``.perfbench_out/trace-<workload>-seed<S>.npz``.

Deliberately unmeasured: serving under scrape load (``--serve``, the
overload guard, ``loadgen``), ``ChainStore`` and the chain cache, chaos and
resilience, and the ``network`` and ``rewards`` layers.

Beside every result the run prints, and writes to
``.perfbench_out/result-<workload>-seed<S>-trace<T>.json``, its labels:
nproc, CPU affinity, what ``auto`` resolves to, Python and numpy versions,
the seed and the git commit.  The file also keeps an untraced run's raw
samples, in the order they were taken.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import runner  # noqa: E402
import stats  # noqa: E402
from families import SQL_STEPS, Monitor, Paper, Sql, Tally, World  # noqa: E402
from runner import SMOKE_SQL_STEPS, expectations, monitor_blocks, untimed  # noqa: E402

WORKLOADS = ("paper", "sql")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_s": "s",
    "paper_serial_s": "s",
    "monitor_eth_blocks_per_s": "blocks/s",
    "monitor_btc_blocks_per_s": "blocks/s",
    "sql_point_ms_mean": "ms",
    "sql_point_ms_p90": "ms",
    "sql_join_ms_mean": "ms",
    "sql_btc_groupby_ms_mean": "ms",
    "sql_eth_groupby_ms_mean": "ms",
    "sql_eth_distinct_ms_mean": "ms",
}

#: Cycles a run makes at least, however slow the host, so every report
#: setting, monitor chain and 2.2M-row query kind has four samples or
#: more and the point lookups 112.
MIN_CYCLES = 8
#: Cycles of a ``--smoke`` run: each report setting and monitor chain once.
SMOKE_CYCLES = 2
#: One cycle, the same on every workload: one report, one monitor command
#: and two sql steps, so the short queries spread over the whole run.
CYCLE = ("paper", "sql", "monitor", "sql")
#: Fresh processes of the workload's family timed for ``setup_s``.
SETUP_SAMPLES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="two cycles on short replays"
    )
    return parser.parse_args(argv)


def labels(seed: int) -> dict:
    """What a result must be read beside: host, versions, seed, commit."""
    import numpy

    from repro.parallel import resolve_workers

    commit = "unknown"
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "auto_workers": resolve_workers("auto"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": commit,
    }


# -- untraced runs -----------------------------------------------------------


class Runner:
    """A :mod:`runner` process and the pipe this process drives it through.

    Construction starts the process and returns once it is set up;
    ``setup_s`` is the wall time from starting it until it said so.
    """

    def __init__(self, family: str, args: argparse.Namespace, setup_only: bool = False) -> None:
        argv = [sys.executable, str(HERE / "runner.py"), "--family", family,
                "--seed", str(args.seed)]
        argv += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
        self.family = family
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.receive()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def receive(self) -> dict:
        """The process's next message."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.family} process ended unexpectedly")
        return json.loads(line)

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def call(self, command: dict) -> dict:
        """Send one command and wait for its reply."""
        self.send(command)
        return self.receive()

    def close(self) -> None:
        """End the process (if still running) and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def setup_sample(family: str, args: argparse.Namespace) -> float:
    """``setup_s`` of one fresh process that exits once set up."""
    process = Runner(family, args, setup_only=True)
    process.proc.wait(timeout=60)
    process.close()
    return process.setup_s


def untraced(args: argparse.Namespace) -> tuple[Tally, dict, dict]:
    """Every family, interleaved, each in its own process.

    Returns the tally, the end-to-end metrics and the raw samples.
    """
    setups = [setup_sample(args.workload, args) for _ in range(SETUP_SAMPLES - 1)]
    runners: dict[str, Runner] = {}
    try:
        for family in runner.FAMILIES:
            runners[family] = Runner(family, args)
        setups.append(runners[args.workload].setup_s)
        for process in runners.values():  # the families prepare side by side
            process.send({"cmd": "prepare"})
        for process in runners.values():
            process.receive()
        start = time.perf_counter()
        steps = dict.fromkeys(runners, 0)
        cycle = 0
        while cycle < (SMOKE_CYCLES if args.smoke else MIN_CYCLES) or (
            not args.smoke and time.perf_counter() - start < args.seconds
        ):
            for family in CYCLE:
                runners[family].call({"cmd": "step", "index": steps[family]})
                steps[family] += 1
            cycle += 1
        done = {family: process.call({"cmd": "finish"}) for family, process in runners.items()}
    finally:
        for process in runners.values():
            process.close()

    tally = Tally()
    for result in done.values():
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        tally.reasons += result["reasons"]
    paper = done["paper"]["samples"]
    monitor = done["monitor"]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (stats.median(setups), f"median of {len(setups)} {args.workload} processes"),
        "peak_rss_mb": (done[args.workload]["peak_rss_mb"], f"{args.workload} process"),
        "paper_s": _mean(paper["auto"]),
        "paper_serial_s": _mean(paper["1"]),
    }
    for key, runs in monitor["samples"].items():
        # Work completed per second: blocks over the commands' summed wall
        # time, steadier than a median of per-command rates.
        rate = monitor["blocks"][key] * len(runs) / sum(runs) if runs else 0.0
        metrics[f"monitor_{key}_blocks_per_s"] = (rate, f"over {len(runs)} commands")
    ms = done["sql"]["samples"]
    for kind, values in ms.items():
        metrics[f"sql_{kind}_ms_mean"] = _mean(values)
    metrics["sql_point_ms_p90"] = _summary(ms["point"], 90, "p90")
    samples = {family: result["samples"] for family, result in done.items()}
    return tally, metrics, samples


def _mean(values: list[float]) -> tuple[float, str]:
    """The mean with its sample count; no samples (all failed) give 0.0."""
    if not values:
        return 0.0, "mean of no samples"
    return sum(values) / len(values), f"mean of {len(values)} samples"


def _summary(values: list[float], pct: float, what: str) -> tuple[float, str]:
    """A nearest-rank percentile with its sample count.

    Too few samples (some operations failed) give the nearest-rank value
    with a note saying so, and no samples give 0.0.
    """
    if not values:
        return 0.0, f"{what} of no samples"
    try:
        value, count = stats.percentile_with_count(values, pct)
    except ValueError as exc:
        return stats.nearest_rank(values, pct), f"{what}: too few samples, {exc}"
    return value, f"{what} of {count} samples"


# -- traced runs -------------------------------------------------------------


def traced(args: argparse.Namespace, out_dir: Path) -> tuple[Tally, dict, list[str]]:
    """The workload's families, untraced then traced; per-layer metrics."""
    tally = Tally()
    recorder = layers.Recorder()
    blocks = monitor_blocks(args.smoke)
    sql_steps = SMOKE_SQL_STEPS if args.smoke else SQL_STEPS
    if args.workload == "paper":
        from repro.analysis.study import DecentralizationStudy

        study = DecentralizationStudy(seed=args.seed)
        expected = expectations({key: study.chain(key) for key in ("btc", "eth")}, blocks)
        del study

        def region(begin) -> None:
            paper = Paper(args.seed, out_dir, begin)
            monitor = Monitor(args.seed, expected, begin, blocks)
            for index in range(2):  # auto and ETH, then 1 and BTC
                paper.step(index, tally)
                monitor.step(index, tally)
    else:
        # Shared by every pass: the untraced passes fill it, so the
        # reference engine never runs inside the traced one.
        reference_rows: dict[str, list[dict]] = {}

        def region(begin) -> World:
            begin("sql_setup", "catalog")
            world = World(args.seed, reference_rows)
            sql = Sql(world, args.seed, begin, sql_steps)
            sql.warm_up()
            for index in range(len(sql_steps)):
                sql.step(index, tally)
            return world

    # The first untraced pass warms the process up (lazy imports, caches);
    # the second is the baseline trace_overhead compares against.
    for _ in range(2):
        gc.collect()
        start = time.perf_counter()
        region(untimed)
        untraced_s = time.perf_counter() - start
    gc.collect()
    with recorder:
        start = time.perf_counter()
        kept = region(recorder.begin_op)
        wall_s = time.perf_counter() - start
        recorder.end_op()

    rows_scanned = sql_rows_scanned(kept) if isinstance(kept, World) else {}
    values = layers.layer_metrics(recorder, wall_s, untraced_s, rows_scanned)
    problems = layer_problems(recorder, values, args.workload)
    recorder.save(str(out_dir / f"trace-{args.workload}-seed{args.seed}.npz"))
    metrics = {name: (value, "") for name, value in values.items()}
    return tally, metrics, problems


def sql_rows_scanned(world: World) -> dict[str, float]:
    """Rows the base scans produced per result row, one EXPLAIN ANALYZE per kind."""
    sql = Sql(world, 0, untimed)
    result = {}
    for kind in layers.SQL_KINDS:
        table, root = world.engine.explain_analyze(sql.kind_sql(kind))
        scanned = sum(node.rows_out or 0 for node in _walk(root) if node.op == "Scan")
        result[kind] = scanned / max(table.num_rows, 1)
    return result


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def layer_problems(recorder: layers.Recorder, values: dict, workload: str) -> list[str]:
    """Coverage gaps and broken no-change predictions of a traced run."""
    from repro.parallel import resolve_workers

    gaps = layers.coverage_gaps(recorder, values, workload)
    if resolve_workers("auto") < 2:
        # One core: "auto" is serial, so no pool is expected anywhere.
        gaps = [name for name in gaps if not name.startswith("parallel.")]
    return [f"no calls recorded for {name}" for name in gaps] + [
        f"{name} = {values[name]} on {workload}, predicted 0"
        for name in layers.zero_predictions(workload)
        if values[name]
    ]


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    run_labels = labels(args.seed)
    problems: list[str] = []
    samples: dict = {}
    if args.trace:
        tally, metrics, problems = traced(args, out_dir)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        tally, metrics, samples = untraced(args)
        units = END_TO_END
    for name, (value, how) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}" + (f" ({how})" if how else ""))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("labels: " + json.dumps(run_labels, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": units[name]} for name in units
        },
    }
    record = dict(result, labels=run_labels, notes={n: h for n, (_, h) in metrics.items()},
                  failures=tally.reasons + problems, samples=samples)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
