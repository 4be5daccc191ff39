"""Tests for the Hurst estimators (variance-time, R/S, Whittle).

Estimator-recovery claims are certified statistically: Whittle-based
checks use the estimator's analytic standard error via
``repro.qa.stats``; variance-time and R/S (no analytic SE) are
certified in the tier-2 Monte-Carlo equivalence class at the bottom,
where the tolerance is an explicit equivalence margin with a
controlled error rate instead of an ad-hoc ``approx`` band.
"""

import numpy as np
import pytest

from repro.analysis.hurst import (
    hurst_summary,
    rs_aggregated,
    rs_pox,
    rs_sensitivity,
    rs_statistic,
    variance_time,
    whittle,
)
from repro.analysis.hurst import _RS_GATHER_VALUES, _log_spaced_ints
from repro.core.daviesharte import DaviesHarteGenerator
from repro.qa import stats as qa
from tests.qa_budget import CHECK_ALPHA


@pytest.fixture(scope="module")
def white_noise():
    return np.random.default_rng(21).standard_normal(2**15)


@pytest.fixture(scope="module")
def fgn_low():
    return DaviesHarteGenerator(0.6).generate(2**15, rng=np.random.default_rng(22))


class TestVarianceTime:
    def test_beta_hurst_relation(self, white_noise):
        """H = 1 - beta/2 by construction, whatever the data."""
        est = variance_time(white_noise)
        assert est.hurst == 1.0 - est.beta / 2.0

    def test_result_arrays_consistent(self, fgn_path):
        est = variance_time(fgn_path)
        assert est.m_values.shape == est.normalized_variances.shape
        assert est.fit_mask.shape == est.m_values.shape
        assert est.normalized_variances[0] == pytest.approx(1.0, rel=0.01)

    def test_normalized_variance_decreasing(self, fgn_path):
        est = variance_time(fgn_path)
        v = est.normalized_variances
        # Overall trend decreases (allow tiny local noise).
        assert v[-1] < 0.2 * v[0]

    def test_custom_m_values(self, white_noise):
        est = variance_time(white_noise, m_values=[1, 10, 100, 1000], fit_range=(10, 1000))
        assert est.m_values.tolist() == [1, 10, 100, 1000]

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            variance_time(np.ones(1000))

    def test_rejects_empty_fit_range(self, white_noise):
        with pytest.raises(ValueError):
            variance_time(white_noise, m_values=[1, 2], fit_range=(100, 200))


class TestRSStatistic:
    def test_known_small_case(self):
        """Manual computation for [1, 2, 3]: W = [-1, -1, 0], R = 1,
        S = std = sqrt(2/3)."""
        value = rs_statistic([1.0, 2.0, 3.0])
        assert value == pytest.approx(1.0 / np.sqrt(2.0 / 3.0))

    def test_scale_invariant(self, rng):
        x = rng.standard_normal(100)
        assert rs_statistic(5.0 * x + 3.0) == pytest.approx(rs_statistic(x), rel=1e-9)

    def test_constant_segment_is_nan(self):
        assert np.isnan(rs_statistic(np.ones(10)))

    def test_positive(self, rng):
        assert rs_statistic(rng.uniform(size=50)) > 0


class TestRSPox:
    def test_pox_points_populated(self, fgn_path):
        est = rs_pox(fgn_path, n_partitions=8, n_lag_points=20)
        assert est.lags.size == est.rs_values.size
        assert est.lags.size > 40

    def test_aggregated_variant(self, fgn_path):
        est = rs_aggregated(fgn_path, m=8)
        assert est.hurst == pytest.approx(0.8, abs=0.1)

    def test_sensitivity_range_tight_for_clean_fgn(self, fgn_path):
        low, high, estimates = rs_sensitivity(fgn_path)
        assert len(estimates) == 9
        assert high - low < 0.1
        assert 0.7 < low <= high < 0.92

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            rs_pox(np.arange(10.0))

    def test_rejects_bad_lags(self, white_noise):
        with pytest.raises(ValueError):
            rs_pox(white_noise, lags=[1])


def _per_segment_pox(data, lags=None, n_partitions=10, n_lag_points=30):
    """The pox points as one ``rs_statistic`` call per segment."""
    n = data.size
    if lags is None:
        lags = _log_spaced_ints(8, max(n // 2, 9), n_lag_points)
    pox_lags, pox_values = [], []
    for lag in lags:
        lag = int(lag)
        for start in np.unique(np.linspace(0, n - lag, n_partitions).astype(int)):
            value = rs_statistic(data[start : start + lag])
            if np.isfinite(value) and value > 0:
                pox_lags.append(lag)
                pox_values.append(value)
    return np.asarray(pox_lags, dtype=float), np.asarray(pox_values, dtype=float)


def _assert_pox_equal(data, fit_range=None, **kwargs):
    est = rs_pox(data, fit_range=fit_range, **kwargs)
    lags, values = _per_segment_pox(data, **kwargs)
    assert est.lags.tobytes() == lags.tobytes()
    assert est.rs_values.tobytes() == values.tobytes()


class TestRSPoxMatchesPerSegmentOracle:
    """Each lag's segments are reduced in one 2-D pass, bit for bit the
    per-segment ``rs_statistic``."""

    @pytest.mark.parametrize("n_partitions", [5, 10, 20])
    @pytest.mark.parametrize("n_lag_points", [15, 30, 60])
    def test_density_grid(self, fgn_path, n_partitions, n_lag_points):
        _assert_pox_equal(fgn_path, n_partitions=n_partitions,
                          n_lag_points=n_lag_points)

    def test_lags_across_the_pairwise_sum_block(self, rng):
        # numpy sums a contiguous run in 8-wide blocks up to 128
        # elements and splits longer runs pairwise; every regime, and
        # runs past its 8192-element buffer, must match.
        data = rng.gamma(0.8, 1_000.0, size=20_000)
        lags = [2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257,
                1_000, 8_191, 8_192, 8_193, 16_385, 20_000]
        _assert_pox_equal(data, lags=lags, n_partitions=7)

    def test_random_series(self, rng):
        for _ in range(20):
            n = int(rng.integers(50, 5_000))
            data = rng.lognormal(0.0, 2.0, size=n) * 10.0 ** rng.integers(-6, 7)
            if rng.random() < 0.3:
                data = np.round(data)
            _assert_pox_equal(data, fit_range=(2, n),
                              n_partitions=int(rng.integers(1, 25)),
                              n_lag_points=int(rng.integers(2, 40)))

    def test_row_groups_split_the_starts(self, rng):
        # Each gather holds at most _RS_GATHER_VALUES values, so these
        # lags' 20 starts run in several groups (a lag longer than the
        # bound alone per group); the pox points must not change.
        data = rng.gamma(0.8, 1_000.0, size=140_000)
        lags = [13_107, 20_000, 40_001, 69_999, 135_000]
        assert all(_RS_GATHER_VALUES // lag < 20 for lag in lags)
        _assert_pox_equal(data, lags=lags, n_partitions=20)

    def test_constant_segments_are_dropped(self):
        data = np.concatenate([np.ones(500), np.arange(500.0)])
        _assert_pox_equal(data, n_partitions=10, n_lag_points=30)

    def test_reference_trace(self):
        from repro.experiments.data import reference_trace

        frames = reference_trace(n_frames=40_000, with_slices=False).frame_bytes
        _assert_pox_equal(frames)

    def test_constant_series_raises(self):
        with pytest.raises(ValueError, match="not enough valid R/S points"):
            rs_pox(np.full(1_000, 3.0))


class TestWhittle:
    def test_farima_exact_model(self):
        """Whittle on its exact model: the analytic CI must cover the
        nominal H (z-test with SE sqrt(6)/(pi sqrt(n)), no magic band)."""
        from repro.core.hosking import HoskingGenerator

        x = HoskingGenerator(hurst=0.8).generate(8192, rng=np.random.default_rng(5))
        qa.require(qa.hurst_ci_check(x, 0.8, alpha=1e-3, name="whittle on exact fARIMA"))

    def test_confidence_interval_width(self):
        """The asymptotic CI halfwidth is 1.96 sqrt(6)/(pi sqrt(n)); at
        n = 244 this reproduces the paper's +-0.088 (they quote 0.088
        at m ~= 700 on 171,000 frames)."""
        x = DaviesHarteGenerator(0.8).generate(244, rng=np.random.default_rng(1))
        est = whittle(x, normalize=None)
        assert 1.96 * est.std_error == pytest.approx(0.098, abs=0.002)

    def test_ci_contains_point_estimate(self, fgn_path):
        est = whittle(fgn_path)
        assert est.ci_low < est.hurst < est.ci_high

    def test_white_noise_gives_half(self, white_noise):
        """White noise is fARIMA(0, 0, 0); H = 1/2 sits in the CI."""
        qa.require(qa.hurst_ci_check(white_noise, 0.5, alpha=1e-3, name="whittle on white noise"))

    def test_normal_scores_robust_to_marginal(self, fgn_path):
        """Rank-Gaussianization: distorting the marginal must not move
        the Whittle estimate (the paper's log-transform rationale)."""
        distorted = np.exp(fgn_path)  # lognormal marginal, same ordering
        est_raw = whittle(fgn_path, normalize=None)
        est_dist = whittle(distorted, normalize="normal-scores")
        assert est_dist.hurst == pytest.approx(est_raw.hurst, abs=0.03)

    def test_log_normalization(self, fgn_path):
        est = whittle(np.exp(fgn_path), normalize="log")
        assert est.hurst == pytest.approx(0.8, abs=0.1)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            whittle(np.linspace(-1, 1, 100), normalize="log")

    def test_rejects_unknown_normalization(self, fgn_path):
        with pytest.raises(ValueError):
            whittle(fgn_path, normalize="boxcox")

    def test_d_bounded(self, fgn_path):
        est = whittle(fgn_path)
        assert -0.5 < est.d < 0.5


class TestHurstSummary:
    def test_all_methods_consistent_on_fgn(self, fgn_path):
        summary = hurst_summary(fgn_path)
        assert summary["variance_time"] == pytest.approx(0.8, abs=0.07)
        assert summary["rs"] == pytest.approx(0.8, abs=0.09)
        low, high = summary["rs_varied"]
        assert low <= summary["rs"] + 0.05
        assert summary["whittle"].hurst == pytest.approx(0.8, abs=0.12)

    def test_reference_trace_in_paper_band(self, small_series):
        """All estimators land in the paper's 0.75-0.90 neighbourhood
        on the calibrated trace."""
        summary = hurst_summary(small_series)
        for key in ("variance_time", "rs", "rs_aggregated"):
            assert 0.7 < summary[key] < 0.95, key


@pytest.mark.tier2
@pytest.mark.statistical_retry
class TestEstimatorRecovery:
    """Monte-Carlo equivalence certification of the heuristic estimators.

    Variance-time and R/S have no analytic standard error, so their
    recovery of H is certified by TOST over independent paths: the
    margin states the accepted estimator bias+noise band explicitly
    (both estimators carry a known finite-sample bias of up to ~0.04
    at n = 2^14) and alpha bounds the rate of false certification.
    Seeded through ``seeded_rng`` -- must pass for any ``--qa-seed``.
    """

    R = 6
    N = 2**14

    def _paths(self, rng, hurst):
        if hurst == 0.5:
            return [rng.standard_normal(self.N) for _ in range(self.R)]
        gen = DaviesHarteGenerator(hurst)
        return [gen.generate(self.N, rng=rng) for _ in range(self.R)]

    @pytest.mark.parametrize(
        "hurst,margin", [(0.5, 0.055), (0.6, 0.065), (0.8, 0.085)]
    )
    def test_variance_time_recovers(self, seeded_rng, hurst, margin):
        values = [variance_time(p).hurst for p in self._paths(seeded_rng, hurst)]
        qa.require(
            qa.equivalence_check(
                values, hurst, margin=margin, alpha=CHECK_ALPHA,
                name=f"variance-time recovers H={hurst}",
            )
        )

    @pytest.mark.parametrize(
        "hurst,margin", [(0.5, 0.095), (0.8, 0.085)]
    )
    def test_rs_pox_recovers(self, seeded_rng, hurst, margin):
        """R/S carries the classical upward small-n bias at H = 1/2
        (~+0.04); the margin covers it explicitly."""
        values = [rs_pox(p).hurst for p in self._paths(seeded_rng, hurst)]
        qa.require(
            qa.equivalence_check(
                values, hurst, margin=margin, alpha=CHECK_ALPHA,
                name=f"R/S pox recovers H={hurst}",
            )
        )
