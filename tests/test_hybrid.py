"""Tests for the hybrid Gamma/Pareto marginal model (Section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Gamma, GammaParetoHybrid


@pytest.fixture(scope="module")
def hybrid():
    return GammaParetoHybrid(27_791.0, 6_254.0, 12.0)


class TestSplicePoint:
    def test_splice_point_above_mean(self, hybrid):
        """The heavy tail lives in the upper tail, beyond the mean."""
        assert hybrid.x_th > hybrid.mu_gamma

    def test_slope_matching_at_splice(self, hybrid):
        """At x_th the Gamma log-log CCDF slope equals -a (the paper's
        construction)."""
        x, gamma = hybrid.x_th, hybrid.gamma
        slope = -x * gamma.pdf(x) / gamma.sf(x)
        assert slope == pytest.approx(-hybrid.tail_shape, rel=1e-6)

    def test_density_continuous_at_splice(self, hybrid):
        """Slope matching makes the density continuous at x_th."""
        eps = 1e-6 * hybrid.x_th
        below = hybrid.pdf(hybrid.x_th - eps)
        above = hybrid.pdf(hybrid.x_th + eps)
        assert above == pytest.approx(below, rel=1e-4)

    def test_cdf_continuous_at_splice(self, hybrid):
        eps = 1e-9 * hybrid.x_th
        assert hybrid.cdf(hybrid.x_th + eps) == pytest.approx(hybrid.cdf(hybrid.x_th - eps), abs=1e-9)

    def test_tail_mass_consistent(self, hybrid):
        assert hybrid.tail_mass == pytest.approx(hybrid.sf(hybrid.x_th), abs=1e-12)
        # For the paper's parameters the tail holds a few percent.
        assert 0.001 < hybrid.tail_mass < 0.10

    def test_heavier_tail_shape_moves_splice_out(self):
        """Steeper (larger a) tails splice farther out on the Gamma."""
        h1 = GammaParetoHybrid(100.0, 20.0, 5.0)
        h2 = GammaParetoHybrid(100.0, 20.0, 15.0)
        assert h2.x_th > h1.x_th


class TestDistributionInterface:
    def test_body_equals_gamma(self, hybrid):
        """Below x_th the hybrid IS the Gamma."""
        x = np.linspace(1_000, hybrid.x_th * 0.999, 50)
        np.testing.assert_allclose(hybrid.cdf(x), hybrid.gamma.cdf(x), rtol=1e-12)
        np.testing.assert_allclose(hybrid.pdf(x), hybrid.gamma.pdf(x), rtol=1e-12)

    def test_tail_is_pure_power_law(self, hybrid):
        """Above x_th the log-log CCDF is a straight line of slope -a."""
        x = np.geomspace(hybrid.x_th * 1.01, hybrid.x_th * 100, 40)
        slopes = np.diff(np.log(hybrid.sf(x))) / np.diff(np.log(x))
        np.testing.assert_allclose(slopes, -hybrid.tail_shape, rtol=1e-9)

    def test_pdf_integrates_to_one(self, hybrid):
        x = np.linspace(1.0, hybrid.x_th, 200_000)
        body = np.trapezoid(hybrid.pdf(x), x)
        tail = hybrid.tail_mass  # exact mass of the Pareto tail
        assert body + tail == pytest.approx(1.0, abs=1e-4)

    def test_ppf_inverts_cdf_through_both_regimes(self, hybrid):
        q = np.concatenate(
            (np.linspace(0.001, 0.95, 20), np.linspace(0.97, 0.99999, 20))
        )
        np.testing.assert_allclose(hybrid.cdf(hybrid.ppf(q)), q, rtol=1e-9)

    def test_ppf_monotone(self, hybrid):
        q = np.linspace(0.001, 0.99999, 300)
        assert np.all(np.diff(hybrid.ppf(q)) > 0)

    def test_ppf_at_one_is_infinite(self, hybrid):
        assert hybrid.ppf(1.0) == np.inf

    def test_mean_between_gamma_and_inflated(self, hybrid):
        """The Pareto tail only adds mass above x_th, so the hybrid
        mean exceeds the truncated-Gamma mean but stays near mu_gamma."""
        assert hybrid.mean() > 0
        assert hybrid.mean() == pytest.approx(hybrid.mu_gamma, rel=0.02)

    def test_mean_matches_numerical_integral(self, hybrid):
        q = np.linspace(1e-7, 1 - 1e-7, 2_000_001)
        numeric = np.trapezoid(hybrid.ppf(q), q)
        assert hybrid.mean() == pytest.approx(numeric, rel=1e-3)

    def test_variance_infinite_for_small_a(self):
        h = GammaParetoHybrid(100.0, 25.0, 1.8)
        assert h.var() == float("inf")
        assert h.mean() < float("inf")

    def test_mean_infinite_for_a_below_one(self):
        h = GammaParetoHybrid(100.0, 25.0, 0.9)
        assert h.mean() == float("inf")

    def test_sampling_moments(self, hybrid, rng):
        x = hybrid.sample(200_000, rng=rng)
        assert np.mean(x) == pytest.approx(hybrid.mean(), rel=0.01)
        assert np.all(x > 0)

class TestFit:
    def test_fit_recovers_tail_shape(self, rng):
        true = GammaParetoHybrid(1000.0, 250.0, 6.0)
        data = true.sample(150_000, rng=rng)
        fitted = GammaParetoHybrid.fit(data, tail_fraction=true.tail_mass)
        assert fitted.tail_shape == pytest.approx(6.0, rel=0.25)
        assert fitted.mu_gamma == pytest.approx(float(np.mean(data)), rel=1e-9)

    def test_fit_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            GammaParetoHybrid.fit(np.concatenate((np.full(200, 5.0), [-1.0])))

class TestMappingTableAndAggregate:
    def test_mapping_table_matches_exact_ppf(self, hybrid):
        table = hybrid.mapping_table(10_000)
        q = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(table.ppf(q), hybrid.ppf(q), rtol=5e-3)

    def test_table_truncates_extreme_tail(self, hybrid):
        """The paper observed its 10,000-point table 'does not hold the
        Pareto tail' for extreme quantiles -- the table's support is
        finite while the Pareto tail is unbounded."""
        table = hybrid.mapping_table(10_000)
        _, hi = table.support
        assert np.isfinite(hi)
        assert table.ppf(1.0) <= hi < hybrid.ppf(1.0 - 1e-12)

    def test_aggregate_one_is_identity_shape(self, hybrid):
        agg = hybrid.aggregate(1, n_points=4000)
        assert agg.mean() == pytest.approx(hybrid.mean(), rel=5e-3)

    def test_aggregate_mean_scales_linearly(self, hybrid):
        agg = hybrid.aggregate(5, n_points=4000)
        assert agg.mean() == pytest.approx(5 * hybrid.mean(), rel=5e-3)

    def test_aggregate_narrows_cov(self, hybrid):
        """Multiplexing N independent sources divides the CoV by
        sqrt(N) -- the paper's SMG argument in distribution form."""
        agg = hybrid.aggregate(4, n_points=4000)
        cov_agg = np.sqrt(agg.var()) / agg.mean()
        cov_one = hybrid.std() / hybrid.mean()
        assert cov_agg == pytest.approx(cov_one / 2.0, rel=0.05)

    def test_aggregate_rejects_bad_n(self, hybrid):
        with pytest.raises(ValueError):
            hybrid.aggregate(0)
        with pytest.raises(TypeError):
            hybrid.aggregate(2.5)


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(min_value=10.0, max_value=1e5),
    cov=st.floats(min_value=0.1, max_value=0.6),
    a=st.floats(min_value=2.5, max_value=30.0),
)
def test_hybrid_construction_invariants(mean, cov, a):
    """Property: for any parameters the splice is slope-matched, the
    CDF is a proper distribution function, and ppf inverts cdf."""
    h = GammaParetoHybrid(mean, mean * cov, a)
    assert h.x_th > 0
    assert 0 < h.tail_mass < 1
    slope = -h.x_th * h.gamma.pdf(h.x_th) / h.gamma.sf(h.x_th)
    assert slope == pytest.approx(-a, rel=1e-4)
    for q in (0.1, 0.5, 0.9, 0.999):
        assert h.cdf(h.ppf(q)) == pytest.approx(q, rel=1e-6)
