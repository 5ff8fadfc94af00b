"""Tests for the command-line interface.

These drive ``repro.cli.main`` in-process.  The full-year simulations run
once per invocation, so the suite keeps CLI runs to a handful.
"""

import json
import logging

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_measure_args(self):
        args = build_parser().parse_args(
            ["measure", "--chain", "bitcoin", "--metric", "gini", "--windows", "fixed-day"]
        )
        assert args.command == "measure"
        assert args.metric == "gini"

    def test_unknown_metric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["measure", "--chain", "bitcoin", "--metric", "bogus", "--windows", "fixed-day"]
            )

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "study"])
        assert args.seed == 7


class TestLoggingLeftAsFound:
    """``main`` configures the ``repro`` logger for its call only."""

    def test_repro_warnings_reach_caplog_after_main(self, tmp_path, caplog, capsys):
        log = tmp_path / "alerts.jsonl"
        log.write_text("")
        assert main(["alerts", str(log)]) == 0
        with caplog.at_level("WARNING", logger="repro.cli"):
            logging.getLogger("repro.cli").warning("after main")
        assert [record.getMessage() for record in caplog.records] == ["after main"]

    def test_handlers_level_and_propagation_restored(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        log.write_text("")
        root = logging.getLogger("repro")
        before = (list(root.handlers), root.level, root.propagate)
        assert main(["--log-json", "--log-level", "DEBUG", "alerts", str(log)]) == 0
        assert (list(root.handlers), root.level, root.propagate) == before


class TestCommands:
    def test_measure_fixed(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "nakamoto",
             "--windows", "fixed-month"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bitcoin/nakamoto/fixed-month" in out
        assert "n=12" in out

    def test_measure_sliding_with_step(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "sliding-4320/2160"]
        )
        assert code == 0
        assert "sliding-4320/2160" in capsys.readouterr().out

    def test_measure_bad_windows(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "rolling-10"]
        )
        assert code == 2

    def test_measure_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "fixed-month", "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()

    def test_figure_with_export(self, tmp_path, capsys):
        code = main(["figure", "--id", "8", "--export-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig8.json").exists()
        assert "fig8" in capsys.readouterr().out

    def test_query(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin",
             "--sql", "SELECT COUNT(*) AS n FROM blocks", "--limit", "5"]
        )
        assert code == 0
        assert "54231" in capsys.readouterr().out

    def test_query_error_is_reported(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--sql", "SELECT nope FROM blocks"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_figure_all(self, capsys):
        code = main(["figure", "--id", "all"])
        assert code == 0
        out = capsys.readouterr().out
        for i in range(1, 15):
            assert f"fig{i}:" in out

    def test_study_prints_findings(self, capsys):
        code = main(["study"])
        assert code == 0
        out = capsys.readouterr().out
        assert "More decentralized: bitcoin" in out
        assert "More stable:        ethereum" in out

    def test_layers_summary(self, capsys):
        code = main(["layers", "--chain", "bitcoin", "--nodes", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "consensus layer" in out
        assert "network layer" in out
        assert "wealth layer" in out
        assert "network nakamoto" in out

    def test_report_writes_markdown(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        code = main(["report", "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert "# Decentralization study report" in text
        assert "**More decentralized:** bitcoin" in text

    def test_simulate_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "blocks.csv"
        code = main(["simulate", "--chain", "btc", "--out", str(out_path)])
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "height,timestamp,primary_producer,n_producers"


class TestExitCodes:
    """Every failure path returns a nonzero exit code."""

    def test_bad_sliding_size(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "sliding-abc"]
        )
        assert code == 2
        assert "sliding" in capsys.readouterr().err

    def test_bad_sliding_step(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "sliding-100/xyz"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_to_missing_directory(self, tmp_path, capsys):
        out_path = tmp_path / "no-such-dir" / "blocks.csv"
        code = main(["simulate", "--chain", "btc", "--out", str(out_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_figure_id(self, capsys):
        code = main(["figure", "--id", "99"])
        assert code == 1
        assert "unknown figure" in capsys.readouterr().err

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_trace_subcommand_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("not a trace\n", encoding="utf-8")
        code = main(["trace", str(path), "--validate"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--window", "0"],
            ["--stride", "-5"],
            ["--blocks", "0"],
            ["--serve", "70000"],
            ["--throttle", "-1"],
            ["--alert-below", "gini"],
            ["--alert-above", "bogus=1.0"],
            ["--max-restarts", "-1"],
            ["--inject-faults", "bogus:rate=0.5"],
        ],
    )
    def test_monitor_validation_failures(self, flags, capsys):
        code = main(["monitor", "--chain", "bitcoin", *flags])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTracing:
    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        from repro import obs
        from repro.obs.export import validate_trace_file

        path = tmp_path / "trace.json"
        code = main(
            ["--trace", str(path), "measure", "--chain", "bitcoin",
             "--metric", "gini", "--windows", "fixed-month"]
        )
        assert code == 0
        assert not obs.tracing_enabled(), "tracing must be reset after the run"
        assert f"wrote trace" in capsys.readouterr().out
        summary = validate_trace_file(str(path))
        assert summary["format"] == "chrome"
        assert summary["n_spans"] >= 2  # cli.measure + at least one child

    def test_trace_jsonl_and_summary_subcommand(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["--trace", str(path), "measure", "--chain", "bitcoin",
             "--metric", "nakamoto", "--windows", "fixed-week"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli.measure" in out
        assert main(["trace", str(path), "--validate"]) == 0
        assert "valid jsonl trace" in capsys.readouterr().out


class TestMonitorCommand:
    def test_monitor_replays_blocks_and_summarizes(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--window", "144",
             "--stride", "72", "--blocks", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monitoring bitcoin: window=144 stride=72 blocks=1000" in out
        assert "monitored 1000 blocks:" in out
        assert "latest: entropy=" in out

    def test_monitor_alert_rules_fire(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--window", "144",
             "--blocks", "500", "--alert-above", "gini=0.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIRING   gini-above-0 [warning] gini=" in out
        assert "1 fired/0 resolved" in out
        assert not any(line.startswith("ALERT") for line in out.splitlines())

    def test_monitor_survives_injected_faults_with_restarts(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--window", "144",
             "--blocks", "1000", "--inject-faults", "malformed_block:rate=0.02",
             "--max-restarts", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monitored" in out

    def test_ethereum_prefix_summary_is_pinned(self, capsys):
        # The benchmark's ETH replay: its summary must not move however
        # the replayed prefix is produced.
        code = main(
            ["--seed", "1", "monitor", "--chain", "ethereum",
             "--window", "6000", "--blocks", "80000"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "monitoring ethereum: window=6000 stride=3000 blocks=80000",
            "monitored 80000 blocks: 25 evaluations, 0 fired/0 resolved",
            "latest: entropy=3.4360, gini=0.8661, nakamoto=3.0000",
        ]


#: The CI chaos-smoke ETH drill.
ETH_DRILL = [
    "chaos", "--seed", "7", "--chain", "ethereum", "--blocks", "2048",
    "--faults", "read_error:rate=0.3;truncate_page:rate=0.2;"
    "duplicate_page:rate=0.2;malformed_block:rate=0.1",
]


class TestChaosCommand:
    def test_ethereum_drill_stdout_is_pinned(self, capsys):
        # The CI chaos-smoke ETH drill, byte for byte: a 2,048-block prefix
        # is swept at N = 1,024 (not the day's 6,000), so 3 windows compare.
        code = main(ETH_DRILL)
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "chaos drill: ethereum prefix of 2048 blocks, seed=7, "
            "faults=read_error;truncate_page;duplicate_page;malformed_block",
            "faults fired: malformed_block x1",
            "integrity: 2 issue(s) detected, 1 refetched, 0 interpolated, "
            "0 dropped, 0 deduplicated",
            "metric series: 4 attribution policies x 3 metrics "
            "over sliding-1024 (3 windows) compared byte-for-byte",
            "cache: corrupted partition caught by checksum and rebuilt",
            "OK: recovery byte-identical across 1 fault class(es) "
            "(+ cache corruption healed)",
        ]

    def test_metric_comparison_catches_a_divergence(self, monkeypatch, capsys):
        """With the chain-level check blinded, one re-attributed block in the
        recovered chain must still fail the drill through its metric series."""
        import repro.resilience

        real_fetch = repro.resilience.fetch_chain

        def fetch_with_one_wrong_producer(source, **kwargs):
            result = real_fetch(source, **kwargs)
            if kwargs.get("injector") is not None:
                ids = result.chain.producer_ids
                ids[0] = (ids[0] + 1) % len(result.chain.producer_names)
            return result

        monkeypatch.setattr(repro.resilience, "chains_equal", lambda a, b: True)
        monkeypatch.setattr(repro.resilience, "fetch_chain", fetch_with_one_wrong_producer)
        assert main(ETH_DRILL) == 1
        err = capsys.readouterr().err
        assert "FAIL: per-address/gini series not byte-identical" in err

    def test_drill_without_a_window_fails(self, capsys):
        assert main(["chaos", "--seed", "7", "--blocks", "1"]) == 1
        captured = capsys.readouterr()
        assert "sliding-2 (0 windows)" in captured.out
        assert "FAIL: sliding-2 has no window to compare" in captured.err

    def test_seeded_drill_recovers_byte_identically(self, capsys):
        code = main(["chaos", "--seed", "7", "--blocks", "2048",
                     "--page-size", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos drill: bitcoin prefix of 2048 blocks" in out
        assert "faults fired:" in out
        assert "cache: corrupted partition caught by checksum and rebuilt" in out
        assert "OK: recovery byte-identical across" in out

    def test_bad_fault_spec_exits_2(self, capsys):
        code = main(["chaos", "--faults", "bogus:rate=0.5"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_blocks_exits_2(self, capsys):
        assert main(["chaos", "--blocks", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_exhausted_retries_exit_1(self, capsys):
        # read_error at rate 1.0 defeats any retry budget: the drill must
        # surface RetryExhaustedError as an operational failure (exit 1),
        # not a usage error.
        code = main(["chaos", "--blocks", "256", "--page-size", "64",
                     "--faults", "read_error:rate=1.0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_lossy_repair_policy_fails_the_drill(self, capsys):
        # Dropping quarantined blocks instead of refetching them shortens
        # the chain, so the byte-identity check must fail with exit 1.
        code = main(["chaos", "--blocks", "1024", "--page-size", "128",
                     "--repair-policy", "drop"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err


class TestMeasureFaultInjection:
    def test_measured_series_carries_on_through_faults(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "fixed-month",
             "--inject-faults", "read_error:rate=0.2;malformed_block:rate=0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faulted ingest:" in out
        assert "bitcoin/gini/fixed-month" in out

    def test_bad_fault_spec_exits_2(self, capsys):
        code = main(
            ["measure", "--chain", "bitcoin", "--metric", "gini",
             "--windows", "fixed-month", "--inject-faults", "nope"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExplainAnalyze:
    def test_plan_tree_printed_with_rows_and_times(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--explain-analyze",
             "--sql", "SELECT primary_producer, COUNT(*) AS n FROM blocks "
                      "GROUP BY primary_producer ORDER BY n DESC LIMIT 3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Query" in out
        assert "Execute" in out
        assert "Scan blocks" in out
        assert "rows=54231" in out  # scan output cardinality
        assert "time=" in out
        assert "Limit 3" in out


class TestWorkersFlag:
    """The global --workers flag: parsing, validation, and wiring."""

    def test_default_is_auto(self):
        args = build_parser().parse_args(["study"])
        assert args.workers == "auto"

    def test_explicit_count_parses_to_int(self):
        args = build_parser().parse_args(["--workers", "4", "study"])
        assert args.workers == 4

    def test_auto_parses_to_sentinel(self):
        args = build_parser().parse_args(["--workers", "auto", "study"])
        assert args.workers == "auto"

    @pytest.mark.parametrize("bad", ["0", "-2", "two", "1.5", "AUTO"])
    def test_invalid_values_exit_2(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workers", bad, "study"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_measure_runs_with_forced_workers(self, capsys):
        code = main(
            ["--workers", "2", "measure", "--chain", "bitcoin",
             "--metric", "gini", "--windows", "fixed-month"]
        )
        assert code == 0
        assert "n=12" in capsys.readouterr().out

    def test_query_runs_with_forced_workers(self, capsys):
        code = main(
            ["--workers", "2", "query", "--chain", "bitcoin", "--sql",
             "SELECT producer, COUNT(*) AS n FROM credits "
             "GROUP BY producer ORDER BY n DESC LIMIT 3"]
        )
        assert code == 0
        assert "'n':" in capsys.readouterr().out


class TestAnalyzeCommand:
    """The `analyze` subcommand: statistics summaries and index reports."""

    def test_analyze_table_prints_per_column_rows(self, capsys):
        code = main(["analyze", "--chain", "bitcoin", "--table", "blocks"])
        assert code == 0
        out = capsys.readouterr().out
        assert "'column': 'height'" in out
        assert "'column': 'primary_producer'" in out
        assert "'table': 'credits'" not in out

    def test_analyze_all_tables_and_index_report(self, capsys):
        code = main(
            ["analyze", "--chain", "bitcoin",
             "--index", "blocks.height:sorted", "--index", "credits.producer"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "'table': 'blocks'" in out
        assert "'table': 'credits'" in out
        assert "index blocks.height kind=sorted" in out
        assert "index credits.producer kind=hash" in out

    def test_bad_index_spec_exits_2(self, capsys):
        code = main(["analyze", "--chain", "bitcoin", "--index", "noDotSpec"])
        assert code == 2
        assert "bad --index spec" in capsys.readouterr().err


class TestQueryOptimizerFlags:
    """Optimizer-facing query flags: --explain, --analyze, --index, --disable."""

    def test_explain_prints_physical_plan_without_executing(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--explain",
             "--sql", "SELECT height FROM blocks WHERE height = 42"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- physical plan (estimated rows) --" in out
        assert "est=" in out
        assert "{'height': 42}" not in out  # plan only, no result rows

    def test_analyze_and_index_drive_an_index_scan(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--analyze",
             "--index", "blocks.height:sorted", "--explain-analyze",
             "--sql", "SELECT height FROM blocks WHERE height = 600000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "est=" in out
        assert "height[sorted]" in out
        assert "{'height': 600000}" in out

    def test_join_explain_shows_strategy_and_cost(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--analyze", "--explain",
             "--sql", "SELECT b.height FROM blocks b JOIN credits c "
                      "ON b.height = c.height"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy=" in out
        assert "cost=" in out

    def test_disable_optimizer_still_answers(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--disable", "optimizer",
             "--sql", "SELECT COUNT(*) AS n FROM blocks", "--limit", "5"]
        )
        assert code == 0
        assert "54231" in capsys.readouterr().out

    def test_disable_toggle_is_validated_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["query", "--chain", "bitcoin", "--disable", "warp-drive",
                 "--sql", "SELECT COUNT(*) AS n FROM blocks"]
            )
        assert excinfo.value.code == 2
        assert "--disable" in capsys.readouterr().err

    def test_bad_index_spec_exits_2(self, capsys):
        code = main(
            ["query", "--chain", "bitcoin", "--index", "nope",
             "--sql", "SELECT COUNT(*) AS n FROM blocks"]
        )
        assert code == 2
        assert "bad --index spec" in capsys.readouterr().err


class TestProfileFlag:
    def test_profile_prints_rollup_and_resets_state(self, capsys):
        from repro import obs
        from repro.obs import profile

        code = main(
            ["--profile", "measure", "--chain", "bitcoin",
             "--metric", "gini", "--windows", "fixed-month"]
        )
        assert code == 0
        # --profile without --trace must leave no global state behind.
        assert not obs.tracing_enabled()
        assert not profile.profiling_enabled()
        out = capsys.readouterr().out
        assert "profile rollup (per stage):" in out
        assert "cli.measure" in out
        assert "cpu" in out

    def test_profile_with_trace_attaches_resource_attrs(self, tmp_path, capsys):
        from repro.obs.export import load_trace_file

        path = tmp_path / "profiled.jsonl"
        code = main(
            ["--trace", str(path), "--profile", "measure", "--chain",
             "bitcoin", "--metric", "nakamoto", "--windows", "fixed-month"]
        )
        assert code == 0
        spans, _ = load_trace_file(path)
        profiled = [s for s in spans if "cpu" in s.attrs]
        assert profiled, "spans must carry resource attrs under --profile"
        assert all(s.attrs["rss_kb"] > 0 for s in profiled)


class TestTraceLenientSummary:
    def test_summary_skips_truncated_tail_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        good = {"type": "span", "id": 1, "parent": None,
                "name": "cli.measure", "start": 0.0, "dur": 0.5}
        path.write_text(
            json.dumps({"type": "meta", "format": "repro-trace", "version": 1})
            + "\n" + json.dumps(good) + "\n"
            + '{"type": "span", "id": 2, "na'  # killed mid-write
        )
        code = main(["trace", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped 1 corrupt record(s)" in captured.err
        assert "cli.measure" in captured.out

    def test_summary_of_fully_corrupt_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\nstill not json\n")
        code = main(["trace", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no readable records" in captured.err


class TestTopCommand:
    def test_url_and_port_are_exclusive(self, capsys):
        code = main(["top", "--url", "http://x/status", "--port", "1"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_needs_url_or_port(self, capsys):
        code = main(["top"])
        assert code == 2
        assert "needs --url or --port" in capsys.readouterr().err

    def test_interval_must_be_positive(self, capsys):
        code = main(["top", "--port", "1", "--interval", "0"])
        assert code == 2
        assert "--interval" in capsys.readouterr().err

    def test_unreachable_server_exits_1(self, capsys):
        code = main(
            ["top", "--url", "http://127.0.0.1:1", "--iterations", "1"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().out

    def test_renders_one_frame_from_live_server(self, capsys):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import TelemetryServer

        status = {
            "chain": "bitcoin", "uptime_seconds": 10.0, "ready": True,
            "blocks_ingested": 100, "build": {"version": "1.3.0"},
        }
        server = TelemetryServer(MetricsRegistry(), status_fn=lambda: status)
        with server:
            code = main(
                ["top", "--port", str(server.port),
                 "--iterations", "1", "--no-clear"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top — chain=bitcoin" in out
        assert "[ready]" in out


class TestMonitorAlertingFlags:
    def test_lag_alert_fires_and_resolves_via_jsonl_log(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        code = main(
            ["monitor", "--chain", "bitcoin", "--window", "144",
             "--blocks", "500", "--alert-above", "lag_blocks=100",
             "--alert-log", str(log)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 fired/1 resolved" in out
        assert "FIRING   lag_blocks-above-100" in out
        events = [json.loads(l) for l in log.read_text().splitlines()]
        assert [e["state"] for e in events] == ["firing", "resolved"]

    def test_slo_file_drives_burn_rate_rules(self, tmp_path, capsys):
        slo_file = tmp_path / "slo.json"
        slo_file.write_text(json.dumps({
            "slo": [{"name": "drift", "type": "metric", "target": 0.99,
                     "series": "monitor.latest.nakamoto", "op": ">=",
                     "value": 1.0}]
        }))
        code = main(
            ["monitor", "--chain", "bitcoin", "--window", "144",
             "--blocks", "500", "--slo", str(slo_file)]
        )
        assert code == 0
        assert "monitored 500 blocks" in capsys.readouterr().out

    def test_bad_slo_file_exits_2(self, tmp_path, capsys):
        slo_file = tmp_path / "slo.json"
        slo_file.write_text("{broken")
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--slo", str(slo_file)]
        )
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_slo_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--slo", str(tmp_path / "absent.toml")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_anomaly_metric_exits_2(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--anomaly", "bogus"]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestAlertsCommand:
    def _write_log(self, path):
        events = [
            {"ts": 10.0, "rule": "lag-high", "state": "firing",
             "value": 42.0, "severity": "warning",
             "message": "lag_blocks=42.0000 (above 5)", "labels": {}},
            {"ts": 20.0, "rule": "lag-high", "state": "resolved",
             "value": 0.0, "severity": "warning",
             "message": "lag_blocks=0.0000 (above 5)", "labels": {}},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))

    def test_tails_existing_log(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        self._write_log(log)
        code = main(["alerts", str(log)])
        assert code == 0
        out = capsys.readouterr().out
        assert "FIRING   lag-high" in out
        assert "RESOLVED lag-high" in out

    def test_lines_limits_initial_batch(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        self._write_log(log)
        code = main(["alerts", str(log), "--lines", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FIRING" not in out
        assert "RESOLVED lag-high" in out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["alerts", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_lines_exits_2(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        self._write_log(log)
        code = main(["alerts", str(log), "--lines", "-1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nonpositive_interval_exits_2(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        self._write_log(log)
        code = main(["alerts", str(log), "--interval", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_lines_are_skipped_with_a_note(self, tmp_path, capsys):
        log = tmp_path / "alerts.jsonl"
        self._write_log(log)
        with log.open("a") as fh:
            fh.write("not json\n")
        code = main(["alerts", str(log)])
        assert code == 0
        captured = capsys.readouterr()
        assert "RESOLVED lag-high" in captured.out
        assert "skipped 1 malformed" in captured.err


class TestLoadgenCommand:
    def test_url_and_port_are_mutually_exclusive(self, capsys):
        code = main(["loadgen", "--url", "http://x", "--port", "80"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_needs_a_target(self, capsys):
        assert main(["loadgen"]) == 2
        assert "--url or --port" in capsys.readouterr().err

    def test_bad_duration_exits_2(self, capsys):
        code = main(["loadgen", "--port", "80", "--duration", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_open_mode_requires_rps(self, capsys):
        code = main(["loadgen", "--port", "80", "--mode", "open"])
        assert code == 2
        assert "--rps" in capsys.readouterr().err

    def test_runs_against_a_live_server_and_prints_report(self, capsys):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import TelemetryServer

        with TelemetryServer(
            MetricsRegistry(), status_fn=lambda: {"ok": True}
        ) as server:
            code = main(
                ["loadgen", "--port", str(server.port), "--duration", "0.3",
                 "--clients", "2", "--fail-on-unhandled"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "loadgen status,200 count=" in out
        assert "unhandled_5xx=0" in out
        assert "latency_ms p50=" in out

    def test_fail_on_unhandled_exits_1_for_dead_target(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_port = sock.getsockname()[1]
        code = main(
            ["loadgen", "--port", str(dead_port), "--duration", "0.2",
             "--fail-on-unhandled"]
        )
        assert code == 1
        assert "connection error" in capsys.readouterr().err


class TestMonitorOverloadFlags:
    def test_bad_rate_limit_spec_exits_2(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--rate-limit", "fast"]
        )
        assert code == 2
        assert "rate limit" in capsys.readouterr().err

    def test_bad_ingest_queue_exits_2(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--ingest-queue", "0"]
        )
        assert code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_bad_max_inflight_exits_2(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--max-inflight", "0"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_monitor_with_overload_and_ingest_queue_runs_clean(self, capsys):
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--max-inflight", "8", "--rate-limit", "1000:2000",
             "--ingest-queue", "16", "--ingest-policy", "block"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Backpressure, not loss: every block arrives despite the bound.
        assert "monitored 500 blocks" in out
        assert "dropped by ingest queue" not in out

    def test_drop_oldest_replay_reports_dropped_blocks(self, capsys):
        # An unthrottled replay outruns the consumer; drop-oldest sheds
        # the backlog and the summary says how much was lost.
        code = main(
            ["monitor", "--chain", "bitcoin", "--blocks", "500",
             "--ingest-queue", "16", "--ingest-policy", "drop-oldest"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped by ingest queue" in out
