"""Command-line interface.

Subcommands::

    repro-decentralization simulate   --chain bitcoin --out blocks.csv
    repro-decentralization measure    --chain bitcoin --metric gini --windows fixed-day
    repro-decentralization figure     --id 9 --chart --export-dir out/
    repro-decentralization study
    repro-decentralization query      --chain bitcoin --sql "SELECT ..."
    repro-decentralization trace      trace.json
    repro-decentralization monitor    --chain bitcoin --serve 9464 --slo slo.toml
    repro-decentralization top        --port 9464
    repro-decentralization alerts     alerts.jsonl --follow
    repro-decentralization chaos      --seed 7 --blocks 4096

All commands simulate the calibrated 2019 datasets on demand (seeded, so
repeated runs are identical).  The global ``--trace FILE`` flag records a
span trace of whatever the command did (``.jsonl`` for the line format,
anything else for Chrome ``chrome://tracing`` JSON) — including spans
recorded inside pool workers, merged back with their worker pids;
``repro trace FILE`` summarizes or validates such a file afterwards
(the summary tolerates truncated traces from interrupted runs).  The
global ``--profile`` flag samples cpu/RSS per span and prints a
per-stage resource rollup after the command (pair with ``--trace`` to
keep the annotated spans).  ``repro top`` is a live dashboard over a
serving monitor's ``/status``.  ``--log-json`` and ``--log-level``
configure structured logging (span-correlated records).
``--workers auto|N`` decides whether ``report``, ``figure`` and ``study``
compute the two chains on a two-worker pool (2 or more) or in-process
(1), and sizes the SQL group-by pool of ``query`` (``auto`` = one worker
per usable CPU; see ``docs/PARALLELISM.md``).

Exit codes are part of the contract: ``2`` for argument/validation
errors (including a malformed ``--inject-faults`` spec or ``--slo``
file), ``1`` for runtime failures (I/O, unknown figures, exhausted retries, a
chaos-run divergence or a drill with no window to compare), ``0`` otherwise.
"""

from __future__ import annotations

import argparse
import atexit
import signal
import sys
import threading
from typing import Callable, Iterator, Sequence

from repro import obs
from repro.analysis.study import DecentralizationStudy
from repro.core.summary import summarize
from repro.errors import FaultSpecError, ReproError
from repro.metrics import available_metrics
from repro.obs.export import validate_trace_file, write_trace
from repro.obs.logging import configured_logging
from repro.obs.report import (
    format_profile_rollup,
    profile_rollup,
    summarize_trace_file_lenient,
)
from repro.sql import PlannerOptions, QueryEngine, format_plan
from repro.sql.cost import TOGGLE_NAMES
from repro.table.io import write_csv
from repro.viz.ascii import ascii_chart
from repro.viz.export import export_figure, series_to_csv
from repro.viz.tables import format_series_rows

_CHAIN_KEYS = {"bitcoin": "btc", "btc": "btc", "ethereum": "eth", "eth": "eth"}


def _workers_arg(text: str) -> str | int:
    """argparse type for ``--workers``: ``auto`` or a positive integer.

    A bad value raises :class:`argparse.ArgumentTypeError`, which argparse
    turns into a usage error — exit code 2, the argument-error contract.
    """
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-decentralization",
        description="Measure decentralization in simulated 2019 Bitcoin/Ethereum.",
    )
    parser.add_argument("--seed", type=int, default=2019, help="simulation seed")
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        metavar="auto|N",
        help="worker processes: 2+ computes the two chains of report/figure/"
        "study in parallel and partitions large SQL group-bys "
        "('auto' = one per usable CPU, 1 = serial; default auto)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a span trace of the command "
        "(.jsonl = line format, otherwise Chrome trace JSON)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample cpu/RSS per span and print a per-stage resource "
        "rollup after the command (implies tracing; add --profile-malloc "
        "for allocation deltas)",
    )
    parser.add_argument(
        "--profile-malloc",
        action="store_true",
        help="with --profile: also record per-span allocation deltas via "
        "tracemalloc (slower)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line (span-correlated)",
    )
    parser.add_argument(
        "--log-level",
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="minimum level for repro.* loggers (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate a chain and export blocks")
    simulate.add_argument("--chain", choices=sorted(_CHAIN_KEYS), required=True)
    simulate.add_argument("--out", required=True, help="output CSV path")

    measure = sub.add_parser("measure", help="compute one metric series")
    measure.add_argument("--chain", choices=sorted(_CHAIN_KEYS), required=True)
    measure.add_argument("--metric", choices=available_metrics(), required=True)
    measure.add_argument(
        "--windows",
        required=True,
        help="window family: fixed-day|fixed-week|fixed-month|sliding-<N>[/<M>]",
    )
    measure.add_argument("--out", help="optional CSV output path")
    measure.add_argument("--chart", action="store_true", help="print an ASCII chart")
    measure.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="ingest the chain through the fault injector "
        "(kind[:rate=F,max=N];... — see 'repro chaos') and measure the "
        "repaired result; the data-quality report is stamped on the series",
    )
    measure.add_argument(
        "--repair-policy", choices=["refetch", "interpolate", "drop"],
        default="refetch",
        help="how --inject-faults ingestion repairs bad blocks "
        "(default refetch, the byte-identical policy)",
    )

    figure = sub.add_parser("figure", help="reproduce figures of the paper")
    figure.add_argument(
        "--id", required=True, help="figure number (1-14), 'fig9', or 'all'"
    )
    figure.add_argument("--chart", action="store_true", help="print ASCII charts")
    figure.add_argument("--export-dir", help="write the figure's CSV/JSON files here")

    sub.add_parser("study", help="run the full study and print the findings")

    report = sub.add_parser("report", help="write the full study as markdown")
    report.add_argument("--out", required=True, help="markdown output path")

    layers = sub.add_parser(
        "layers", help="consensus/network/wealth decentralization summary"
    )
    layers.add_argument("--chain", choices=sorted(_CHAIN_KEYS), required=True)
    layers.add_argument(
        "--nodes", type=int, default=800, help="P2P network size for the network layer"
    )

    query = sub.add_parser("query", help="run SQL over a simulated chain")
    query.add_argument("--chain", choices=sorted(_CHAIN_KEYS), required=True)
    query.add_argument(
        "--sql",
        required=True,
        help="SELECT over 'blocks' (one row per block) or "
        "'credits' (one row per block-producer credit)",
    )
    query.add_argument("--limit", type=int, default=20, help="max rows to print")
    query.add_argument(
        "--explain-analyze",
        action="store_true",
        help="print the executed plan tree with per-operator timings, row "
        "counts and optimizer estimates",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the plan (logical summary + physical plan with "
        "estimated rows) without executing",
    )
    query.add_argument(
        "--analyze",
        action="store_true",
        help="run ANALYZE over the catalog first so the optimizer plans "
        "with real statistics",
    )
    query.add_argument(
        "--index",
        action="append",
        default=[],
        metavar="TABLE.COLUMN[:KIND]",
        help="build a secondary index before planning (KIND: sorted, hash "
        "or auto; repeatable)",
    )
    query.add_argument(
        "--disable",
        action="append",
        default=[],
        choices=sorted(TOGGLE_NAMES) + ["optimizer"],
        help="turn off one optimizer feature, or 'optimizer' for the whole "
        "cost-based planner (repeatable)",
    )

    analyze = sub.add_parser(
        "analyze", help="collect optimizer statistics over a simulated chain"
    )
    analyze.add_argument("--chain", choices=sorted(_CHAIN_KEYS), required=True)
    analyze.add_argument(
        "--table",
        choices=["blocks", "credits"],
        default=None,
        help="analyze only this table (default: all)",
    )
    analyze.add_argument(
        "--index",
        action="append",
        default=[],
        metavar="TABLE.COLUMN[:KIND]",
        help="also build a secondary index and report it (repeatable)",
    )

    trace = sub.add_parser("trace", help="summarize or validate a recorded trace file")
    trace.add_argument("file", help="trace file written with --trace")
    trace.add_argument(
        "--validate",
        action="store_true",
        help="check the file against the exporter schema instead of summarizing",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a serving monitor's /status",
    )
    top.add_argument(
        "--url",
        help="status endpoint (default http://127.0.0.1:<port>/status)",
    )
    top.add_argument(
        "--port", type=int, help="shorthand for --url on 127.0.0.1"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N frames (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing (for logs/CI)",
    )

    monitor = sub.add_parser(
        "monitor",
        help="replay a chain through the streaming monitor, "
        "optionally serving live telemetry",
    )
    monitor.add_argument("--chain", choices=sorted(_CHAIN_KEYS), required=True)
    monitor.add_argument(
        "--window", type=int, default=144, help="sliding window size N in blocks"
    )
    monitor.add_argument(
        "--stride", type=int, default=None, help="evaluation stride M (default N/2)"
    )
    monitor.add_argument(
        "--blocks", type=int, default=None,
        help="replay only the first N blocks (default: the whole year); "
        "only the days holding them are simulated, except on bitcoin, whose "
        "multi-coinbase payouts need the whole year drawn",
    )
    monitor.add_argument(
        "--serve", type=int, metavar="PORT", default=None,
        help="serve /metrics, /healthz, /readyz and /status on PORT "
        "(0 picks an ephemeral port) while ingesting",
    )
    monitor.add_argument(
        "--port-file", metavar="FILE", default=None,
        help="write the bound telemetry port to FILE (for scripted scrapers)",
    )
    monitor.add_argument(
        "--throttle", type=float, default=0.0,
        help="sleep this many seconds between blocks (simulates a live feed)",
    )
    monitor.add_argument(
        "--linger", type=float, default=0.0,
        help="keep serving this many seconds after the replay ends "
        "(-1 = until SIGINT/SIGTERM)",
    )
    monitor.add_argument(
        "--alert-below", action="append", default=[], metavar="METRIC=VALUE",
        help="alert when METRIC drops below VALUE (repeatable; also "
        "accepts the progress metrics lag_blocks/blocks_ingested)",
    )
    monitor.add_argument(
        "--alert-above", action="append", default=[], metavar="METRIC=VALUE",
        help="alert when METRIC rises above VALUE (repeatable)",
    )
    monitor.add_argument(
        "--slo", metavar="FILE", default=None,
        help="evaluate declarative SLOs from a TOML/JSON file with "
        "multi-window burn rates (see docs/OBSERVABILITY.md)",
    )
    monitor.add_argument(
        "--alert-log", metavar="FILE", default=None,
        help="append every alert lifecycle event to FILE as JSONL "
        "(tail it with 'repro alerts FILE')",
    )
    monitor.add_argument(
        "--alert-webhook", metavar="URL", default=None,
        help="POST every alert lifecycle event to URL as JSON "
        "(retried; delivery failures are logged, never fatal)",
    )
    monitor.add_argument(
        "--anomaly", action="append", default=[], metavar="METRIC",
        help="flag EWMA z-score anomalies in METRIC through the alert "
        "engine (repeatable)",
    )
    monitor.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="mangle the block feed through the fault injector "
        "(dropped/duplicated/emptied blocks); combine with --max-restarts "
        "to survive the crashes empty blocks cause",
    )
    monitor.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="supervise the ingest loop: restart it up to N times on a "
        "crash, serving 503 on /readyz while degraded (default: no "
        "supervision, a crash fails the command)",
    )
    monitor.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission control: at most N telemetry requests execute "
        "concurrently; excess arrivals queue briefly, then get 503 + "
        "Retry-After (default: unbounded)",
    )
    monitor.add_argument(
        "--admission-queue", type=int, default=16, metavar="N",
        help="bounded wait queue in front of admission control "
        "(default 16; only with --max-inflight)",
    )
    monitor.add_argument(
        "--rate-limit", metavar="RPS[:BURST]", default=None,
        help="per-client token-bucket rate limit (keyed by X-Client-Id "
        "or peer address); over-limit clients get 429 with RateLimit-* "
        "headers (BURST defaults to 2*RPS)",
    )
    monitor.add_argument(
        "--cache-ttl", type=float, default=1.0, metavar="SECONDS",
        help="how long cached /status and series snapshots count as "
        "fresh; stale copies serve load shedding (default 1.0)",
    )
    monitor.add_argument(
        "--ingest-queue", type=int, default=None, metavar="N",
        help="decouple the feed from the monitor with a bounded queue "
        "of N blocks (default: ingest inline, no queue)",
    )
    monitor.add_argument(
        "--ingest-policy", choices=["block", "drop-oldest", "shed"],
        default="block",
        help="what a full ingest queue does: block the feed "
        "(backpressure), drop the oldest buffered block, or shed the "
        "incoming one (default block)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a serving monitor with closed- or open-loop load and "
        "report latency percentiles and per-status counts",
    )
    loadgen.add_argument(
        "--url", help="base URL of the server (e.g. http://127.0.0.1:9464)"
    )
    loadgen.add_argument(
        "--port", type=int, help="shorthand for --url on 127.0.0.1"
    )
    loadgen.add_argument(
        "--path", default="/status",
        help="path to request (default /status)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=5.0,
        help="how long to drive load, in seconds (default 5)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=4,
        help="concurrent workers, each with its own X-Client-Id (default 4)",
    )
    loadgen.add_argument(
        "--rps", type=float, default=None,
        help="total target request rate (closed loop: paces clients; "
        "open loop: the fixed arrival schedule; default: unpaced)",
    )
    loadgen.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = fire after previous completes, open = fire on a "
        "fixed schedule regardless (requires --rps; default closed)",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-request timeout in seconds (default 2)",
    )
    loadgen.add_argument(
        "--fail-on-unhandled", action="store_true",
        help="exit 1 when any connection error or unhandled 5xx "
        "(a 5xx without Retry-After) was observed",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection drill: ingest a chain through every "
        "fault class and verify byte-identical recovery",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="fault-schedule and simulation seed (default 7)",
    )
    chaos.add_argument("--chain", choices=sorted(_CHAIN_KEYS), default="bitcoin")
    chaos.add_argument(
        "--blocks", type=int, default=4096,
        help="length of the chain prefix to drill on (default 4096); only "
        "the days holding it are simulated, except on bitcoin, whose "
        "multi-coinbase payouts need the whole year drawn",
    )
    chaos.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault spec kind[:rate=F,max=N];... "
        "(default: every fault class at moderate rates)",
    )
    chaos.add_argument(
        "--repair-policy", choices=["refetch", "interpolate", "drop"],
        default="refetch",
        help="integrity repair policy; only refetch guarantees the "
        "byte-identical verdict (default refetch)",
    )
    chaos.add_argument(
        "--page-size", type=int, default=256,
        help="ingest page size in blocks (default 256)",
    )

    alerts = sub.add_parser(
        "alerts",
        help="print or follow an alert JSONL log written with "
        "'repro monitor --alert-log'",
    )
    alerts.add_argument("file", help="alert JSONL file to read")
    alerts.add_argument(
        "--follow", "-f", action="store_true",
        help="keep reading as the file grows (Ctrl-C to stop)",
    )
    alerts.add_argument(
        "--lines", type=int, default=None, metavar="N",
        help="print only the last N events before following",
    )
    alerts.add_argument(
        "--interval", type=float, default=0.5,
        help="poll interval while following (default 0.5s)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    The ``repro`` logger is configured for the call only: on return it
    has its previous handlers, level and propagation again.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    with configured_logging(json_lines=args.log_json, level=args.log_level):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Run one parsed command, with the tracing and profiling it asks for."""
    exit_flush: Callable[[], None] | None = None
    if args.trace or args.profile:
        obs.enable_tracing()
    if args.profile:
        from repro.obs import profile as profile_mod

        profile_mod.enable_profiling(trace_malloc=args.profile_malloc)
    if args.trace:
        # A long-running `monitor --serve` may be killed mid-run; the
        # atexit hook flushes whatever was recorded so --trace output is
        # not lost (SIGTERM is converted to a normal exit by the monitor).
        exit_flush = _register_trace_flush(args.trace)
    try:
        with obs.span(f"cli.{args.command}"):
            code = _dispatch(args)
    except FaultSpecError as exc:
        # A bad --inject-faults/--faults spec is an argument error (2),
        # not a runtime failure (1) — same contract as bad window specs.
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if args.profile:
        # Rollup before the trace flush below disables the tracer.
        print("\nprofile rollup (per stage):")
        print(format_profile_rollup(profile_rollup(obs.get_tracer().spans)))
        profile_mod.disable_profiling()
        if not args.trace:
            obs.disable_tracing()
    if args.trace:
        # Flush the trace even when the command failed; a failed write
        # only overrides a successful command's exit code.
        trace_code = _write_trace_file(args.trace)
        atexit.unregister(exit_flush)
        if code == 0:
            code = trace_code
    return code


def _register_trace_flush(path: str) -> Callable[[], None]:
    """Arm an atexit hook that writes the trace if nobody else has."""

    def flush() -> None:
        tracer = obs.get_tracer()
        if tracer.enabled:
            _write_trace_file(path)

    atexit.register(flush)
    return flush


def _write_trace_file(path: str) -> int:
    """Flush the recorded trace; returns a nonzero code if writing failed."""
    tracer = obs.get_tracer()
    try:
        write_trace(tracer, path)
        print(f"wrote trace ({len(tracer.spans)} spans) to {path}")
        return 0
    except OSError as exc:
        print(f"error: could not write trace: {exc}", file=sys.stderr)
        return 1
    finally:
        obs.disable_tracing()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "alerts":
        return _cmd_alerts(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    study = DecentralizationStudy(seed=args.seed, workers=args.workers)
    if args.command == "monitor":
        return _cmd_monitor(study, args)
    if args.command == "simulate":
        return _cmd_simulate(study, args)
    if args.command == "measure":
        return _cmd_measure(study, args)
    if args.command == "figure":
        return _cmd_figure(study, args)
    if args.command == "study":
        return _cmd_study(study)
    if args.command == "report":
        return _cmd_report(study, args)
    if args.command == "layers":
        return _cmd_layers(study, args)
    if args.command == "query":
        return _cmd_query(study, args)
    if args.command == "analyze":
        return _cmd_analyze(study, args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_simulate(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    chain = study.chain(_CHAIN_KEYS[args.chain])
    write_csv(chain.block_table(), args.out)
    print(
        f"wrote {chain.n_blocks} blocks "
        f"(heights {chain.start_height}..{chain.end_height}) to {args.out}"
    )
    return 0


def _cmd_measure(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    chain_key = _CHAIN_KEYS[args.chain]
    if args.inject_faults:
        from repro.core.engine import MeasurementEngine

        result = _faulted_ingest(
            study.chain(chain_key), args.inject_faults, args.seed,
            repair_policy=args.repair_policy,
        )
        print(
            f"faulted ingest: {len(result.report.issues)} issue(s) detected, "
            f"{result.report.refetched} refetched, "
            f"{result.report.interpolated} interpolated, "
            f"{result.report.dropped} dropped"
        )
        engine = MeasurementEngine.from_chain(
            result.chain, quality=result.report.as_dict()
        )
    else:
        engine = study.engine(chain_key)
    windows = args.windows
    if windows.startswith("fixed-"):
        series = engine.measure_calendar(args.metric, windows.removeprefix("fixed-"))
    elif windows.startswith("sliding-"):
        spec = windows.removeprefix("sliding-")
        try:
            if "/" in spec:
                size_text, step_text = spec.split("/", 1)
                size, step = int(size_text), int(step_text)
            else:
                size, step = int(spec), None
        except ValueError:
            print(
                f"error: bad sliding window spec {windows!r} "
                "(expected sliding-<N> or sliding-<N>/<M>)",
                file=sys.stderr,
            )
            return 2
        series = engine.measure_sliding(args.metric, size, step)
    else:
        print(f"error: unknown window family {windows!r}", file=sys.stderr)
        return 2
    print(summarize(series))
    print(format_series_rows({args.metric: series}))
    if args.chart:
        print(ascii_chart(series))
    if args.out:
        series_to_csv(series, args.out)
        print(f"wrote {len(series)} points to {args.out}")
    return 0


def _cmd_figure(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    if args.id == "all":
        for figure in study.all_figures():
            _print_figure(figure, args)
        return 0
    figure_id = args.id if args.id.startswith("fig") else f"fig{args.id}"
    _print_figure(study.figure(figure_id), args)
    return 0


def _print_figure(figure, args: argparse.Namespace) -> None:
    print(f"{figure.figure_id}: {figure.title}")
    for label, series in sorted(figure.series.items()):
        print(f"  {label}: {summarize(series)}")
        if args.chart:
            print(ascii_chart(series))
    for key, value in sorted(figure.notes.items()):
        print(f"  note {key} = {value:.4f}")
    for distribution in figure.distributions:
        print(f"  window {distribution.window_label}: "
              f"{distribution.n_producers} producers")
        for name, share in distribution.top:
            print(f"    {name:<40s} {share:6.2%}")
        print(f"    {'<other>':<40s} {distribution.other_share:6.2%}")
    if args.export_dir:
        paths = export_figure(figure, args.export_dir)
        print(f"exported {len(paths)} files to {args.export_dir}")


def _cmd_study(study: DecentralizationStudy) -> int:
    findings = study.findings()
    print("Level comparison (which chain is more decentralized):")
    for comparison in findings.level:
        direction = "higher" if comparison.higher_is_more_decentralized else "lower"
        print(
            f"  {comparison.metric_name:<10s} ({direction} = more decentralized): "
            f"btc={comparison.mean_a:.4f} eth={comparison.mean_b:.4f} "
            f"-> {comparison.winner}"
        )
    print("Stability comparison (lower CV = more stable):")
    for comparison in findings.stability.comparisons:
        print(
            f"  {comparison.metric_name:<10s}: "
            f"btc CV={comparison.cv_a:.4f} eth CV={comparison.cv_b:.4f} "
            f"-> {comparison.winner}"
        )
    print(f"More decentralized: {findings.more_decentralized}")
    print(f"More stable:        {findings.more_stable}")
    return 0


def _cmd_report(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(study, path=args.out)
    print(f"wrote {len(text.splitlines())} lines to {args.out}")
    return 0


def _cmd_layers(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    from repro.chain.pools import bitcoin_pools_2019, ethereum_pools_2019
    from repro.network import (
        NetworkParams,
        betweenness_concentration,
        degree_gini,
        generate_network,
        network_nakamoto,
        stale_rate,
    )
    from repro.rewards import (
        BITCOIN_REWARDS_2019,
        ETHEREUM_REWARDS_2019,
        cumulative_wealth_series,
        reward_credits,
    )

    which = _CHAIN_KEYS[args.chain]
    chain = study.chain(which)
    engine = study.engine(which)
    if which == "btc":
        registry, schedule = bitcoin_pools_2019(), BITCOIN_REWARDS_2019
    else:
        registry, schedule = ethereum_pools_2019(), ETHEREUM_REWARDS_2019

    print(f"=== {chain.spec.name}: decentralization by layer ===")
    print("consensus layer (the paper):")
    for metric in ("gini", "entropy", "nakamoto"):
        series = engine.measure_calendar(metric, "day")
        print(f"  daily {metric:<10s} mean={series.mean():.4f} "
              f"range=[{series.min():.3f}, {series.max():.3f}]")

    network = generate_network(
        NetworkParams(
            n_nodes=args.nodes,
            pools=tuple(p.name for p in registry.pools),
            seed=args.seed,
        )
    )
    print(f"network layer ({network.n_nodes} nodes, {network.n_edges} edges):")
    print(f"  degree gini        = {degree_gini(network):.4f}")
    print(f"  betweenness gini   = {betweenness_concentration(network, sample=100):.4f}")
    print(f"  network nakamoto   = {network_nakamoto(network, sample=100)}")
    print(f"  stale rate         = {stale_rate(network, chain.spec.target_interval):.4%}")

    wealth = reward_credits(chain, schedule, seed=args.seed)
    gini_series = cumulative_wealth_series(wealth, "gini", checkpoints=12)
    nakamoto_series = cumulative_wealth_series(wealth, "nakamoto", checkpoints=12)
    print("wealth layer (cumulative income):")
    print(f"  total paid out     = {wealth.total_weight:,.0f} native units")
    print(f"  year-end gini      = {gini_series.values[-1]:.4f}")
    print(f"  year-end nakamoto  = {nakamoto_series.values[-1]:.0f}")
    return 0


def _chain_engine(
    study: DecentralizationStudy, args: argparse.Namespace
) -> QueryEngine | None:
    """Build a query engine over the chain's tables per the CLI flags.

    Returns None (after printing an error) when an ``--index`` spec is
    malformed; bad table/column names surface as :class:`ReproError`
    from the engine.
    """
    chain = study.chain(_CHAIN_KEYS[args.chain])
    disable = set(getattr(args, "disable", []) or [])
    options = PlannerOptions.with_disabled(sorted(disable - {"optimizer"}))
    engine = QueryEngine(
        {"blocks": chain.block_table(), "credits": chain.to_table()},
        workers=args.workers,
        optimizer="optimizer" not in disable,
        options=options,
    )
    for spec in args.index:
        table, sep, rest = spec.partition(".")
        column, _, kind = rest.partition(":")
        if not sep or not column:
            print(
                f"error: bad --index spec {spec!r} "
                "(expected TABLE.COLUMN[:KIND])",
                file=sys.stderr,
            )
            return None
        engine.create_index(table, column, kind or "auto")
    return engine


def _cmd_query(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    engine = _chain_engine(study, args)
    if engine is None:
        return 2
    if args.analyze:
        engine.analyze()
    if args.explain:
        print(engine.explain(args.sql))
        return 0
    if args.explain_analyze:
        result, root = engine.explain_analyze(args.sql)
        print(format_plan(root))
        print()
    else:
        result = engine.execute(args.sql)
    for row in result.head(args.limit).to_rows():
        print(row)
    if result.num_rows > args.limit:
        print(f"... ({result.num_rows - args.limit} more rows)")
    return 0


def _cmd_analyze(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    engine = _chain_engine(study, args)
    if engine is None:
        return 2
    summary = engine.analyze(args.table)
    for row in summary.to_rows():
        print(row)
    for table in ("blocks", "credits"):
        specs = engine.index_specs(table)
        for column, kind in sorted(specs.items()):
            print(f"index {table}.{column} kind={kind}")
    return 0


def _parse_alert_specs(
    specs: Sequence[str], kind: str
) -> list[tuple[str, float]] | None:
    """Parse repeated ``METRIC=VALUE`` flags; None means a spec was bad."""
    parsed: list[tuple[str, float]] = []
    for spec in specs:
        metric, _, value_text = spec.partition("=")
        try:
            value = float(value_text)
        except ValueError:
            print(
                f"error: bad --alert-{kind} spec {spec!r} "
                "(expected METRIC=VALUE)",
                file=sys.stderr,
            )
            return None
        parsed.append((metric, value))
    return parsed


def _faulted_ingest(source, spec: str, seed: int, repair_policy: str = "refetch"):
    """Ingest ``source`` through a seeded fault injector with retries."""
    from repro.resilience import FaultInjector, fetch_chain, parse_fault_spec
    from repro.resilience.retry import ManualClock, RetryPolicy

    plan = parse_fault_spec(spec)
    return fetch_chain(
        source,
        injector=FaultInjector(plan, seed=seed),
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.25),
        clock=ManualClock(),
        repair_policy=repair_policy,
        seed=seed,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.chain.pools import bitcoin_pools_2019, ethereum_pools_2019
    from repro.core.engine import MeasurementEngine
    from repro.data.cache import cached_chain
    from repro.data.store import ChainStore
    from repro.resilience import (
        FaultInjector,
        FaultPlan,
        chain_from_raw_blocks,
        chains_equal,
        fetch_chain,
        parse_fault_spec,
        raw_blocks,
    )
    from repro.resilience.faults import corrupt_file_bytes
    from repro.resilience.retry import ManualClock, RetryPolicy
    from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019

    if args.blocks <= 0:
        print(f"error: --blocks must be positive, got {args.blocks}", file=sys.stderr)
        return 2
    if args.page_size <= 0:
        print(
            f"error: --page-size must be positive, got {args.page_size}",
            file=sys.stderr,
        )
        return 2
    plan = parse_fault_spec(args.faults) if args.faults else FaultPlan.default()

    if _CHAIN_KEYS[args.chain] == "btc":
        prefix = simulate_bitcoin_2019(seed=args.seed, blocks=args.blocks)
        registry = bitcoin_pools_2019()
    else:
        prefix = simulate_ethereum_2019(seed=args.seed, blocks=args.blocks)
        registry = ethereum_pools_2019()
    source = chain_from_raw_blocks(prefix.spec, raw_blocks(prefix))
    print(
        f"chaos drill: {source.spec.name} prefix of {source.n_blocks} blocks, "
        f"seed={args.seed}, faults={';'.join(plan.kinds)}"
    )

    clean = fetch_chain(source, page_size=args.page_size)
    injector = FaultInjector(plan, seed=args.seed)
    faulted = fetch_chain(
        source,
        page_size=args.page_size,
        injector=injector,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.25),
        clock=ManualClock(),
        repair_policy=args.repair_policy,
        seed=args.seed,
    )
    fired = {kind: count for kind, count in sorted(injector.fired.items()) if count}
    print(
        "faults fired: "
        + (", ".join(f"{k} x{v}" for k, v in fired.items()) or "none")
    )
    report = faulted.report
    print(
        f"integrity: {len(report.issues)} issue(s) detected, "
        f"{report.refetched} refetched, {report.interpolated} interpolated, "
        f"{report.dropped} dropped, {report.deduplicated} deduplicated"
    )

    failures: list[str] = []
    if not chains_equal(clean.chain, faulted.chain):
        failures.append("recovered chain diverges from the clean ingest")

    # One day's window, shrunk to half the prefix (rounded down to an even
    # size) when the prefix holds fewer than two days: N = 1,024 over a
    # 2,048-block ETH prefix gives 3 windows to compare.
    window = max(2, min(source.spec.window_day, source.n_blocks // 4 * 2))
    n_windows = 0
    for attribution in ("per-address", "first-address", "fractional", "pool"):
        clean_engine = MeasurementEngine.from_chain(clean.chain, attribution, registry)
        faulted_engine = MeasurementEngine.from_chain(
            faulted.chain, attribution, registry, quality=report.as_dict()
        )
        metrics = ("gini", "entropy", "nakamoto")
        a = clean_engine.measure_sliding_many(metrics, window)
        b = faulted_engine.measure_sliding_many(metrics, window)
        n_windows = len(a["gini"])
        for metric in metrics:
            if a[metric].values.tobytes() != b[metric].values.tobytes():
                failures.append(f"{attribution}/{metric} series not byte-identical")
    print(
        "metric series: 4 attribution policies x 3 metrics "
        f"over sliding-{window} ({n_windows} windows) compared byte-for-byte"
    )
    if n_windows == 0:
        failures.append(f"sliding-{window} has no window to compare")

    # The corrupt_cache half of the drill: flipped bytes in a stored
    # partition must be caught by its checksum and healed by a rebuild.
    with tempfile.TemporaryDirectory() as tmp:
        store = ChainStore(tmp)
        store.save("chaos", clean.chain)
        partition = sorted((store.root / "chaos").glob("part-*.npz"))[0]
        corrupt_file_bytes(partition)
        rebuilt = cached_chain(store, "chaos", lambda: clean.chain)
        if store.verify("chaos") or not chains_equal(rebuilt, clean.chain):
            failures.append("cache corruption was not detected and rebuilt")
        else:
            print("cache: corrupted partition caught by checksum and rebuilt")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: recovery byte-identical across {len(fired)} fault class(es) "
        f"(+ cache corruption healed)"
    )
    return 0


#: Blocks whose producer names the monitor feed decodes in one step, so
#: the decoded names held at once are bounded by the chunk, not the chain.
_FEED_CHUNK_BLOCKS = 4096


def _block_feed(chain) -> Iterator[list[str]]:
    """Yield each block's producer names.

    Ids decode to names a chunk of blocks at a time (one ``tolist()`` and
    one pass through ``producer_names``); each block is then a list slice.
    """
    n_blocks = chain.n_blocks
    offsets, ids, names = chain.offsets, chain.producer_ids, chain.producer_names
    for first in range(0, n_blocks, _FEED_CHUNK_BLOCKS):
        last = min(first + _FEED_CHUNK_BLOCKS, n_blocks)
        start, stop = offsets[first], offsets[last]
        decoded = list(map(names.__getitem__, ids[start:stop].tolist()))
        lo = 0
        for hi in (offsets[first + 1:last + 1] - start).tolist():
            yield decoded[lo:hi]
            lo = hi


def _cmd_monitor(study: DecentralizationStudy, args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.obs.alerts import JSONLSink, WebhookSink, anomaly_rule, rules_from_thresholds
    from repro.obs.slo import load_slo_file
    from repro.serve import run_monitor

    if args.window <= 0:
        print(f"error: --window must be positive, got {args.window}", file=sys.stderr)
        return 2
    if args.stride is not None and args.stride <= 0:
        print(f"error: --stride must be positive, got {args.stride}", file=sys.stderr)
        return 2
    if args.blocks is not None and args.blocks <= 0:
        print(f"error: --blocks must be positive, got {args.blocks}", file=sys.stderr)
        return 2
    if args.serve is not None and not 0 <= args.serve <= 65535:
        print(f"error: --serve port out of range: {args.serve}", file=sys.stderr)
        return 2
    if args.throttle < 0:
        print(f"error: --throttle must be >= 0, got {args.throttle}", file=sys.stderr)
        return 2
    if args.max_restarts is not None and args.max_restarts < 0:
        print(
            f"error: --max-restarts must be >= 0, got {args.max_restarts}",
            file=sys.stderr,
        )
        return 2
    overload = None
    if (
        args.max_inflight is not None
        or args.rate_limit is not None
        or args.cache_ttl != 1.0
    ):
        from repro.serve import OverloadConfig, parse_rate_limit

        rate, burst = (None, None)
        if args.rate_limit is not None:
            try:
                rate, burst = parse_rate_limit(args.rate_limit)
            except ValidationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        try:
            overload = OverloadConfig(
                max_inflight=args.max_inflight,
                max_queue=args.admission_queue,
                rate_limit=rate,
                burst=burst,
                cache_ttl=args.cache_ttl,
            )
        except ValidationError as exc:
            # Bad overload knobs are argument errors, same contract as
            # bad windows or fault specs.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.ingest_queue is not None and args.ingest_queue < 1:
        print(
            f"error: --ingest-queue must be >= 1, got {args.ingest_queue}",
            file=sys.stderr,
        )
        return 2
    injector = None
    if args.inject_faults:
        from repro.resilience import FaultInjector, parse_fault_spec

        # A bad spec raises FaultSpecError -> exit 2 in main().
        injector = FaultInjector(parse_fault_spec(args.inject_faults), seed=args.seed)
    below = _parse_alert_specs(args.alert_below, "below")
    above = _parse_alert_specs(args.alert_above, "above")
    if below is None or above is None:
        return 2
    monitored = ("gini", "entropy", "nakamoto")
    # Alert rules also see the ingest progress run_monitor adds to the
    # window metrics.
    progress = ("lag_blocks", "blocks_ingested")
    for metric, _ in (*below, *above):
        if metric not in monitored + progress:
            print(f"error: unknown alert metric {metric!r}", file=sys.stderr)
            return 2
    for metric in args.anomaly:
        if metric not in monitored:
            print(f"error: unknown --anomaly metric {metric!r}", file=sys.stderr)
            return 2
    alert_rules = rules_from_thresholds(below, above) + [
        anomaly_rule(f"anomaly:{metric}", metric) for metric in args.anomaly
    ]
    slos = []
    if args.slo:
        try:
            slos = load_slo_file(args.slo)
        except ValidationError as exc:
            # A malformed SLO file is an argument error, same contract as
            # bad window or fault specs.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    alert_sinks = []
    if args.alert_log:
        alert_sinks.append(JSONLSink(args.alert_log))
    if args.alert_webhook:
        alert_sinks.append(WebhookSink(args.alert_webhook))

    # `monitor --serve` is a long-running process: enable metric recording
    # so counters/timings from the pipeline reach /metrics scrapes, and
    # convert SIGINT/SIGTERM into a clean stop (flushing --trace output).
    enabled_here = False
    if args.serve is not None and not obs.tracing_enabled():
        obs.enable_tracing()
        enabled_here = True
    stop_event = threading.Event()
    previous_handlers: list[tuple[int, object]] = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers.append((signum, signal.getsignal(signum)))
            signal.signal(signum, lambda *_: stop_event.set())
    try:
        chain_key = _CHAIN_KEYS[args.chain]
        chain = study.chain(chain_key, args.blocks)
        total = chain.n_blocks
        print(
            f"monitoring {chain.spec.name}: window={args.window} "
            f"stride={args.stride or max(args.window // 2, 1)} "
            f"blocks={total}",
            flush=True,
        )
        result = run_monitor(
            _block_feed(chain),
            args.window,
            args.stride,
            chain=chain.spec.name,
            alert_rules=alert_rules,
            total_blocks=total,
            serve_port=args.serve,
            throttle=args.throttle,
            linger=args.linger,
            port_file=args.port_file,
            stop_event=stop_event,
            print_fn=lambda line: print(line, flush=True),
            max_restarts=args.max_restarts,
            injector=injector,
            slos=slos,
            alert_sinks=alert_sinks,
            overload=overload,
            ingest_queue=args.ingest_queue,
            ingest_policy=args.ingest_policy,
        )
    finally:
        for signum, handler in previous_handlers:
            signal.signal(signum, handler)
        if enabled_here:
            obs.disable_tracing()
    latest = ", ".join(f"{k}={v:.4f}" for k, v in sorted(result.latest.items()))
    restarts = f", {result.restarts} restart(s)" if result.restarts else ""
    if result.ingest_dropped:
        restarts += f", {result.ingest_dropped} block(s) dropped by ingest queue"
    print(
        f"monitored {result.blocks} blocks: {result.evaluations} evaluations, "
        f"{result.alerts_fired} fired/{result.alerts_resolved} resolved{restarts}"
    )
    if latest:
        print(f"latest: {latest}")
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    import json as json_mod
    import time as time_mod

    from repro.obs.alerts import format_alert_event

    if args.lines is not None and args.lines < 0:
        print(f"error: --lines must be >= 0, got {args.lines}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"error: --interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2

    def emit(lines: list[str], skipped: int, limit: int | None = None) -> int:
        events = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json_mod.loads(line))
            except json_mod.JSONDecodeError:
                skipped += 1
        if limit is not None:
            events = events[-limit:] if limit > 0 else []
        for event in events:
            print(format_alert_event(event), flush=True)
        return skipped

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            skipped = emit(fh.readlines(), 0, limit=args.lines)
            if not args.follow:
                if skipped:
                    print(
                        f"warning: skipped {skipped} malformed line(s)",
                        file=sys.stderr,
                    )
                return 0
            # Follow mode: keep reading appended lines until Ctrl-C (a
            # partial final line is retried on the next poll).
            buffer = ""
            while True:
                chunk = fh.read()
                if chunk:
                    buffer += chunk
                    whole, _, buffer = buffer.rpartition("\n")
                    if whole:
                        skipped = emit(whole.splitlines(), skipped)
                else:
                    time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"error: cannot read alert log {args.file}: {exc}", file=sys.stderr)
        return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.validate:
        summary = validate_trace_file(args.file)
        print(
            f"{summary['path']}: valid {summary['format']} trace "
            f"({summary['n_spans']} spans, {summary['n_counters']} counters, "
            f"{summary['n_gauges']} gauges, {summary['n_timings']} timings)"
        )
        return 0
    # The summary tolerates corrupt/truncated records (a monitor killed
    # mid-write leaves a partial final line): skip with a counted warning,
    # fail only when nothing at all was readable.
    text, n_records, skipped = summarize_trace_file_lenient(args.file)
    if skipped:
        print(
            f"warning: skipped {skipped} corrupt record(s) in {args.file}",
            file=sys.stderr,
        )
    if n_records == 0:
        print(f"error: no readable records in {args.file}", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.serve import LoadgenConfig, print_report, run_loadgen

    if args.url and args.port is not None:
        print("error: pass --url or --port, not both", file=sys.stderr)
        return 2
    if not args.url and args.port is None:
        print("error: repro loadgen needs --url or --port", file=sys.stderr)
        return 2
    url = args.url or f"http://127.0.0.1:{args.port}"
    try:
        config = LoadgenConfig(
            url=url,
            path=args.path,
            duration=args.duration,
            clients=args.clients,
            rps=args.rps,
            mode=args.mode,
            timeout=args.timeout,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_loadgen(config)
    print_report(report)
    if args.fail_on_unhandled and not report.ok():
        print(
            f"error: {report.errors} connection error(s) and "
            f"{report.unhandled_5xx} unhandled 5xx response(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    if args.url and args.port is not None:
        print("error: pass --url or --port, not both", file=sys.stderr)
        return 2
    if not args.url and args.port is None:
        print("error: repro top needs --url or --port", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"error: --interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2
    url = args.url or f"http://127.0.0.1:{args.port}/status"
    if not url.rstrip("/").endswith("/status"):
        url = url.rstrip("/") + "/status"
    try:
        return run_top(
            url,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
