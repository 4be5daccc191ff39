"""Tests for the analysis figure experiments (Figs. 1-12)."""

import numpy as np
import pytest

from repro.experiments import (
    fig01_timeseries,
    fig02_lowfreq,
    fig03_segments,
    fig04_ccdf,
    fig05_lefttail,
    fig06_density,
    fig07_acf,
    fig08_periodogram,
    fig09_confidence,
    fig10_selfsimilar,
    fig11_variance_time,
    fig12_pox,
)


class TestFig01:
    def test_envelopes_ordered(self, small_trace):
        r = fig01_timeseries.run(small_trace)
        assert np.all(r["low"] <= r["mean"])
        assert np.all(r["mean"] <= r["high"])

    def test_time_axis_spans_duration(self, small_trace):
        r = fig01_timeseries.run(small_trace)
        assert r["time_minutes"][-1] <= r["duration_minutes"]
        assert r["time_minutes"][0] >= 0

    def test_peaks_reported(self, small_trace):
        r = fig01_timeseries.run(small_trace)
        assert 1 <= len(r["peak_minutes"]) <= 5
        assert np.all(r["peak_values"] > np.mean(r["mean"]))


class TestFig02:
    def test_moving_average_smoother_than_raw(self, small_trace):
        r = fig02_lowfreq.run(small_trace)
        assert np.std(r["moving_average"]) < np.std(small_trace.frame_bytes)

    def test_visible_low_frequency_content(self, small_trace):
        """The excursion of the filtered series is substantial -- the
        qualitative content of Fig. 2."""
        r = fig02_lowfreq.run(small_trace)
        assert r["relative_excursion"] > 0.02

    def test_window_respected(self, small_trace):
        r = fig02_lowfreq.run(small_trace, window=1000)
        assert r["window"] == 1000
        assert r["moving_average"].size == small_trace.n_frames - 999


class TestFig03:
    def test_five_segments(self, small_trace):
        r = fig03_segments.run(small_trace)
        assert len(r["segments"]) == 5
        assert r["segment_means"].size == 5

    def test_segment_means_vary_beyond_iid(self, small_trace):
        """The non-stationarity illusion: some segment means deviate by
        many i.i.d. standard errors."""
        r = fig03_segments.run(small_trace)
        assert np.max(r["mean_deviation_sigmas"]) > 3.0


class TestFig04:
    def test_pareto_matches_tail_best(self, small_trace):
        r = fig04_ccdf.run(small_trace)
        dev = r["tail_deviation"]
        assert dev["pareto"] < dev["normal"]
        assert dev["pareto"] < dev["lognormal"]
        assert dev["gamma_pareto"] <= dev["gamma"]

    def test_normal_tail_worst_of_bells(self, small_trace):
        """Normal falls off too quickly (paper's observation)."""
        r = fig04_ccdf.run(small_trace)
        assert r["tail_deviation"]["normal"] > r["tail_deviation"]["gamma"]

    def test_ranking_sorted(self, small_trace):
        r = fig04_ccdf.run(small_trace)
        devs = [r["tail_deviation"][name] for name in r["ranking"]]
        assert devs == sorted(devs)

    def test_hybrid_wins(self, small_trace):
        r = fig04_ccdf.run(small_trace)
        assert r["ranking"][0] in ("gamma_pareto", "pareto")


class TestFig05:
    def test_gamma_adequate_on_left_tail(self, small_trace):
        r = fig05_lefttail.run(small_trace)
        assert r["left_tail_deviation"]["gamma"] < 0.5

    def test_hybrid_equals_gamma_on_left(self, small_trace):
        """Below the splice the hybrid IS the Gamma."""
        r = fig05_lefttail.run(small_trace)
        np.testing.assert_allclose(r["gamma_pareto"], r["gamma"], rtol=1e-6)


class TestFig06:
    def test_density_close(self, small_trace):
        r = fig06_density.run(small_trace)
        assert r["l1_discrepancy"] < 0.08

    def test_model_density_integrates(self, small_trace):
        r = fig06_density.run(small_trace)
        width = r["x"][1] - r["x"][0]
        assert np.sum(r["model_density"]) * width == pytest.approx(1.0, abs=0.05)


class TestFig07:
    def test_acf_shape(self, small_trace):
        r = fig07_acf.run(small_trace, max_lag=5_000)
        assert r["acf"][0] == pytest.approx(1.0)
        assert r["acf"].size == 5_001

    def test_exponential_fails_at_long_lags(self, small_trace):
        """The paper's key Fig. 7 observation."""
        r = fig07_acf.run(small_trace, max_lag=5_000)
        assert r["exp_underestimates_tail"] > 10.0

    def test_exponential_adequate_at_moderate_lags_only(self, small_trace):
        """The fitted exponential stays within a factor of a few of the
        ACF over its own fit window (lags ~20-100), but is off by
        orders of magnitude at lag 3000 -- the paper's contrast."""
        r = fig07_acf.run(small_trace, max_lag=5_000)
        ratio_100 = r["acf"][100] / r["exp_curve"][100]
        assert 0.1 < ratio_100 < 10.0
        assert r["exp_underestimates_tail"] > 10 * ratio_100


class TestFig08:
    def test_power_law_divergence(self, small_trace):
        r = fig08_periodogram.run(small_trace)
        assert r["alpha"] > 0.2  # omega^-alpha divergence at origin

    def test_implied_hurst_in_band(self, small_trace):
        r = fig08_periodogram.run(small_trace)
        assert 0.6 < r["hurst"] < 1.05

    def test_binned_spectrum_decreasing_trend(self, small_trace):
        r = fig08_periodogram.run(small_trace)
        assert r["intensity"][0] > r["intensity"][-1]


class TestFig09:
    def test_iid_coverage_poor(self, small_trace):
        r = fig09_confidence.run(small_trace)
        assert r["iid_coverage"] < r["lrd_coverage"] + 1e-9
        assert r["iid_coverage"] < 0.7

    def test_hurst_default_from_trace(self, small_trace):
        r = fig09_confidence.run(small_trace)
        assert 0.55 <= r["hurst"] <= 0.95


class TestFig10:
    def test_significant_correlations_survive_aggregation(self, small_trace):
        r = fig10_selfsimilar.run(small_trace)
        assert r["levels"][100]["significant_lags"] >= 2

    def test_aggregated_series_lengths(self, small_trace):
        r = fig10_selfsimilar.run(small_trace)
        assert r["levels"][100]["series"].size == small_trace.n_frames // 100
        # 20 blocks of 1000 frames cannot carry 20 ACF lags: the level is dropped.
        assert 1000 not in r["levels"]

    def test_iid_control_loses_correlations(self):
        """Contrast: aggregating i.i.d. data kills all correlation."""
        from repro.video.trace import VBRTrace

        iid = VBRTrace(np.random.default_rng(1).gamma(20.0, 1000.0, size=100_000))
        r = fig10_selfsimilar.run(iid)
        # 95% band: expect ~1 false positive over 20 lags; allow 3.
        assert all(level["significant_lags"] <= 3 for level in r["levels"].values())


class TestFig11And12:
    def test_variance_time_in_band(self, small_trace):
        r = fig11_variance_time.run(small_trace)
        assert 0.70 < r["hurst"] < 0.95
        assert r["beta"] == pytest.approx(2 - 2 * r["hurst"], abs=1e-9)

    def test_pox_in_band(self, small_trace):
        r = fig12_pox.run(small_trace)
        assert 0.70 < r["hurst"] < 0.95
        assert r["srd_reference_slope"] == 0.5

    def test_consistent_with_each_other(self, small_trace):
        h1 = fig11_variance_time.run(small_trace)["hurst"]
        h2 = fig12_pox.run(small_trace)["hurst"]
        assert abs(h1 - h2) < 0.15
