"""Tests for the study orchestration and headline findings."""

import os

import numpy as np
import pytest

from repro import obs
from repro.analysis.report import generate_report
from repro.analysis.study import DecentralizationStudy
from repro.core.engine import MeasurementEngine
from repro.errors import MeasurementError, SimulationError
from repro.parallel import pool_status


def _pools_created() -> int:
    return pool_status()["lifetime"]["pools_created"]


@pytest.fixture(scope="module")
def study(btc_chain, eth_chain):
    return DecentralizationStudy(bitcoin=btc_chain, ethereum=eth_chain)


class TestDataAccess:
    def test_chain_lookup(self, study, btc_chain, eth_chain):
        assert study.chain("btc") is btc_chain
        assert study.chain("eth") is eth_chain

    def test_unknown_chain_rejected(self, study):
        with pytest.raises(MeasurementError):
            study.chain("dogecoin")

    def test_engine_cached(self, study):
        assert study.engine("btc") is study.engine("btc")

    def test_prefix_slices_the_held_chain(self, study, eth_chain):
        prefix = study.chain("eth", 5_000)
        assert prefix.n_blocks == 5_000
        assert np.shares_memory(prefix.heights, eth_chain.heights)
        assert study.chain("eth") is eth_chain

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_non_positive_prefix_rejected(self, study, blocks):
        with pytest.raises(SimulationError, match="blocks must be positive"):
            study.chain("eth", blocks)


class TestFindings:
    def test_bitcoin_more_decentralized_every_metric(self, study):
        """The paper's §II-C3 headline, per metric."""
        findings = study.findings()
        for comparison in findings.level:
            assert comparison.winner == "bitcoin", comparison.metric_name

    def test_ethereum_more_stable_every_metric(self, study):
        findings = study.findings()
        for comparison in findings.stability.comparisons:
            assert comparison.winner == "ethereum", comparison.metric_name

    def test_overall_verdicts(self, study):
        findings = study.findings()
        assert findings.more_decentralized == "bitcoin"
        assert findings.more_stable == "ethereum"

    def test_findings_at_week_granularity_agree(self, study):
        findings = study.findings(granularity="week")
        assert findings.more_decentralized == "bitcoin"
        assert findings.more_stable == "ethereum"


class TestSummaryTable:
    def test_shape(self, study):
        table = study.summary_table()
        # 2 chains x 3 metrics x (3 calendar + 3 sliding) = 36 rows.
        assert table.num_rows == 36
        assert "mean" in table.column_names

    def test_contains_both_chains(self, study):
        table = study.summary_table()
        chains = set(table["chain_name"].tolist())
        assert chains == {"bitcoin", "ethereum"}


class TestLazySimulation:
    def test_lazily_simulates_missing_chain(self):
        study = DecentralizationStudy(seed=5)
        chain = study.chain("btc")
        assert chain.n_blocks == 54_231

    def test_prefix_is_never_kept_as_the_dataset(self):
        study = DecentralizationStudy(seed=5)
        prefix = study.chain("eth", 5_000)
        year = study.chain("eth")
        assert (prefix.n_blocks, year.n_blocks) == (5_000, 2_204_650)
        assert study.chain("eth") is year
        assert np.array_equal(prefix.timestamps, year.timestamps[:5_000])


class TestChainFanOut:
    """The two chains' halves: one pool per ``workers>=2`` study, none at 1."""

    @pytest.fixture(scope="class")
    def reports(self, btc_chain, eth_chain):
        texts, pools = {}, {}
        for workers in (2, 1):
            study = DecentralizationStudy(
                bitcoin=btc_chain, ethereum=eth_chain, workers=workers
            )
            before = _pools_created()
            texts[workers] = generate_report(study)
            pools[workers] = _pools_created() - before
        return texts, pools

    def test_reports_are_byte_identical(self, reports):
        texts, _ = reports
        assert texts[2] == texts[1]

    def test_one_pool_per_parallel_report_none_serial(self, reports):
        _, pools = reports
        assert pools == {2: 1, 1: 0}

    def test_workers_simulate_what_the_study_lacks(self):
        # No chains supplied: each worker simulates its own chain.
        parallel = generate_report(DecentralizationStudy(seed=7, workers=2))
        serial = generate_report(DecentralizationStudy(seed=7, workers=1))
        assert parallel == serial

    def test_supplied_chains_are_the_pool_payload(self, short_chains):
        halves = DecentralizationStudy(**short_chains, workers=2).chain_results()
        assert halves["btc"].n_blocks == short_chains["bitcoin"].n_blocks
        assert halves["eth"].n_blocks == short_chains["ethereum"].n_blocks

    def test_serial_report_measures_one_day_sweep_per_chain(
        self, btc_chain, eth_chain, monkeypatch
    ):
        calls = []
        measure_many = MeasurementEngine.measure_many

        def counted(engine, *args, **kwargs):
            calls.append(engine.credits.chain_name)
            return measure_many(engine, *args, **kwargs)

        monkeypatch.setattr(MeasurementEngine, "measure_many", counted)
        study = DecentralizationStudy(bitcoin=btc_chain, ethereum=eth_chain, workers=1)
        generate_report(study)
        assert sorted(calls) == ["bitcoin", "ethereum"]

    def test_span_records_mode_and_workers(self, short_chains):
        obs.enable_tracing()
        try:
            DecentralizationStudy(**short_chains, workers=1).chain_results()
            spans = [s for s in obs.get_tracer().spans if s.name == "study.chains"]
        finally:
            obs.disable_tracing()
            obs.get_tracer().reset()
        assert [(s.attrs["mode"], s.attrs["workers"]) for s in spans] == [("serial", 1)]

    def test_auto_on_one_usable_cpu_stays_in_process(self, short_chains, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = _pools_created()
        DecentralizationStudy(**short_chains, workers="auto").all_figures()
        assert _pools_created() == before

    def test_single_chain_figure_needs_no_pool(self, short_chains):
        study = DecentralizationStudy(bitcoin=short_chains["bitcoin"], workers=2)
        before = _pools_created()
        assert study.figure(1).figure_id == "fig1"
        assert _pools_created() == before
