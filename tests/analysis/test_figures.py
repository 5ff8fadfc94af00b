"""Tests for the per-figure generators (on the full calibrated datasets)."""

import pytest

from repro.analysis.figures import FIGURE_IDS, figure_7, figure_8
from repro.analysis.study import DecentralizationStudy
from repro.errors import MeasurementError
from tests.conftest import assert_series_maps_identical


@pytest.fixture(scope="module")
def study(btc_chain, eth_chain):
    return DecentralizationStudy(bitcoin=btc_chain, ethereum=eth_chain)


class TestFixedFigures:
    def test_fig1_structure(self, study):
        figure = study.figure(1)
        assert set(figure.series) == {"day", "week", "month"}
        assert len(figure.series["day"]) == 365
        assert len(figure.series["week"]) == 52
        assert len(figure.series["month"]) == 12

    def test_fig1_metric_and_chain(self, study):
        figure = study.figure(1)
        assert figure.series["day"].metric_name == "gini"
        assert figure.series["day"].chain_name == "bitcoin"

    def test_fig4_is_ethereum(self, study):
        figure = study.figure(4)
        assert figure.series["day"].chain_name == "ethereum"

    def test_notes_hold_means(self, study):
        figure = study.figure(2)
        assert figure.notes["mean_day"] == pytest.approx(
            figure.series["day"].mean()
        )


class TestSlidingFigures:
    def test_fig9_window_sizes(self, study):
        figure = study.figure(9)
        assert set(figure.series) == {"N=144", "N=1008", "N=4320"}
        assert figure.series["N=144"].window_desc == "sliding-144/72"

    def test_fig10_uses_ethereum_sizes(self, study):
        figure = study.figure(10)
        assert set(figure.series) == {"N=6000", "N=42000", "N=180000"}

    def test_sliding_point_counts_match_eq5(self, study, btc_chain):
        figure = study.figure(9)
        for size in (144, 1008, 4320):
            expected = (btc_chain.n_blocks - size) // (size // 2) + 1
            assert len(figure.series[f"N={size}"]) == expected

    @pytest.mark.parametrize("number", range(9, 15))
    def test_generator_equals_the_study_figure(self, study, btc_engine, eth_engine, number):
        generator, (which,) = FIGURE_IDS[f"fig{number}"]
        direct = generator(btc_engine if which == "btc" else eth_engine)
        via_study = study.figure(number)
        assert (direct.figure_id, direct.title, direct.notes) == (
            via_study.figure_id, via_study.title, via_study.notes
        )
        assert_series_maps_identical(direct.series, via_study.series)


class TestFigure7:
    def test_distributions_present(self, study):
        figure = study.figure(7)
        assert len(figure.distributions) == 2
        day, month = figure.distributions
        assert day.window_label == "2019-12-07"
        assert month.window_label == "2019-12"

    def test_paper_observation_top_stays_bottom_grows(self, study):
        """Fig. 7's point: top shares barely move, population grows a lot."""
        figure = study.figure(7)
        day, month = figure.distributions
        assert month.n_producers > 1.5 * day.n_producers
        top_day = sum(share for _, share in day.top)
        top_month = sum(share for _, share in month.top)
        assert abs(top_day - top_month) < 0.10

    def test_labels_are_pool_names(self, study):
        figure = study.figure(7)
        names = [name for name, _ in figure.distributions[0].top]
        assert any(name in ("F2Pool", "BTC.com", "Poolin", "AntPool") for name in names)

    def test_shares_sum_to_one(self, study):
        for distribution in study.figure(7).distributions:
            total = sum(s for _, s in distribution.top) + distribution.other_share
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_top_k_parameter(self, btc_engine):
        figure = figure_7(btc_engine, top_k=3)
        assert len(figure.distributions[0].top) == 3


class TestFigure8:
    def test_eq5_counts_for_all_six_families(self, study, btc_chain, eth_chain):
        figure = study.figure(8)
        assert figure.notes["btc_L_N=144"] == (btc_chain.n_blocks - 144) // 72 + 1
        assert figure.notes["eth_L_N=6000"] == (eth_chain.n_blocks - 6000) // 3000 + 1
        assert figure.notes["btc_overlap_N=4320"] == 2160.0
        assert figure.notes["eth_overlap_N=180000"] == 90000.0


class TestFigureDispatch:
    def test_all_14_figures_registered(self):
        assert set(FIGURE_IDS) == {f"fig{i}" for i in range(1, 15)}

    def test_unknown_figure_rejected(self, study):
        with pytest.raises(MeasurementError):
            study.figure(99)

    def test_series_or_raise(self, study):
        figure = study.figure(1)
        assert figure.series_or_raise("day") is figure.series["day"]
        with pytest.raises(MeasurementError):
            figure.series_or_raise("decade")

    def test_string_figure_id(self, study):
        assert study.figure("fig3").figure_id == "fig3"
