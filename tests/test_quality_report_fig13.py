"""Tests for the trace report and the Fig. 13 system."""

import pytest

from repro.analysis.report import analyze_trace
from repro.experiments import fig13_system


class TestTraceReport:
    @pytest.fixture(scope="class")
    def report(self, small_trace):
        return analyze_trace(small_trace)

    def test_verdict_lrd(self, report):
        assert report.is_lrd
        assert 0.7 < report.hurst < 1.0

    def test_panel_complete(self, report):
        assert len(report.hurst_estimates) >= 6

    def test_marginal_fitted(self, report):
        assert report.marginal.mu_gamma == pytest.approx(27_791, rel=0.01)
        assert report.tail_ranking[0] in ("pareto", "gamma_pareto")

    def test_format_renders(self, report):
        text = report.format()
        assert "Hurst panel" in text
        assert "VERDICT" in text
        assert "stationary LRD" in text or "non-stationarity" in text

    def test_accepts_plain_series(self, small_series):
        report = analyze_trace(small_series)
        assert report.summary.n_observations == small_series.size

    def test_iid_control_not_lrd(self, rng):
        x = rng.gamma(20.0, 1000.0, size=30_000)
        report = analyze_trace(x)
        assert not report.is_lrd


class TestFig13System:
    def test_composition_laws_hold(self, small_trace):
        result = fig13_system.run(small_trace, n_frames=8_000)
        assert result["conservation_ok"]
        assert result["loss_rate"] >= 0
        assert result["offered_bytes"] > result["lost_bytes"]

    def test_parameters_respected(self, small_trace):
        result = fig13_system.run(small_trace, n_sources=3, n_frames=8_000)
        assert result["n_sources"] == 3
        assert len(result["lags"]) == 3
