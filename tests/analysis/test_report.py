"""Tests for the markdown report generator."""

from pathlib import Path

import pytest

from repro.analysis.report import generate_report
from repro.analysis.study import DecentralizationStudy


@pytest.fixture(scope="module")
def report_text(btc_chain, eth_chain) -> str:
    study = DecentralizationStudy(bitcoin=btc_chain, ethereum=eth_chain)
    return generate_report(study)


class TestReportContent:
    def test_has_all_sections(self, report_text):
        for heading in (
            "# Decentralization study report",
            "## Datasets",
            "## Headline findings",
            "## Figures",
            "## Anomaly scan",
        ):
            assert heading in report_text

    def test_dataset_counts_present(self, report_text):
        assert "54,231" in report_text
        assert "2,204,650" in report_text

    def test_findings_verdicts(self, report_text):
        assert "**More decentralized:** bitcoin" in report_text
        assert "**More stable:** ethereum" in report_text

    def test_every_figure_has_a_section(self, report_text):
        for i in range(1, 15):
            assert f"### fig{i}:" in report_text

    def test_fig7_distributions_rendered(self, report_text):
        assert "2019-12-07" in report_text
        assert "(other):" in report_text

    def test_sparklines_rendered(self, report_text):
        assert "`▁" in report_text or "▁" in report_text

    def test_anomaly_scan_includes_day14(self, report_text):
        assert "2019-01-14" in report_text


class TestGoldenReport:
    def test_seed_2019_report_equals_committed_study_report(self, report_text):
        # STUDY_REPORT.md is what `make report` writes for the seed-2019
        # chains; any drift in simulation, windows, metrics or rendering
        # shows up here as a byte difference.
        committed = Path(__file__).resolve().parents[2] / "STUDY_REPORT.md"
        assert report_text.encode("utf-8") == committed.read_bytes()


class TestReportFile:
    def test_written_to_disk(self, btc_chain, eth_chain, tmp_path):
        study = DecentralizationStudy(bitcoin=btc_chain, ethereum=eth_chain)
        path = tmp_path / "report.md"
        text = generate_report(study, path=path)
        assert path.read_text(encoding="utf-8") == text
