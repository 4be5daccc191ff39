"""Tests for the Normal, Gamma, Lognormal and Pareto distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Gamma, Lognormal, Normal, Pareto


class TestNormal:
    def test_pdf_integrates_to_one(self):
        d = Normal(3.0, 2.0)
        x = np.linspace(-20, 30, 20001)
        assert np.trapezoid(d.pdf(x), x) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_at_mean_is_half(self):
        assert Normal(5.0, 1.5).cdf(5.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.3, 1.7), (-5.0, 1e-3), (1e5, 2e4)])
    def test_cdf_is_the_erf_expression_bit_for_bit(self, rng, mu, sigma):
        # cdf works in place; it must still be 0.5 * (1 + erf(z)) exactly.
        from scipy import special

        d = Normal(mu, sigma)
        x = np.concatenate([rng.standard_normal(5_000) * 10.0 * sigma + mu,
                            [np.nan, np.inf, -np.inf, 0.0, -0.0, mu]])
        before = x.copy()

        def want(v):
            return 0.5 * (1.0 + special.erf((v - mu) / (sigma * np.sqrt(2.0))))

        assert d.cdf(x).tobytes() == want(x).tobytes()
        assert x.tobytes() == before.tobytes()
        assert d.cdf(x[::3]).tobytes() == want(x[::3]).tobytes()
        assert d.cdf(np.arange(5)).tobytes() == want(np.arange(5)).tobytes()
        for v in (0.0, -0.0, mu, 1.5, np.nan):
            got = d.cdf(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want(np.float64(v))).tobytes()

    def test_ppf_inverts_cdf(self):
        d = Normal(-2.0, 0.7)
        q = np.linspace(0.001, 0.999, 97)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-10)

    def test_sf_complements_cdf(self):
        d = Normal(0.0, 1.0)
        x = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(d.sf(x) + d.cdf(x), 1.0, atol=1e-12)

    def test_moments(self):
        d = Normal(7.0, 3.0)
        assert d.mean() == 7.0
        assert d.var() == 9.0
        assert d.std() == 3.0

    def test_fit_recovers_parameters(self, rng):
        data = rng.normal(10.0, 2.0, size=200_00)
        d = Normal.fit(data)
        assert d.mu == pytest.approx(10.0, abs=0.1)
        assert d.sigma == pytest.approx(2.0, abs=0.1)

    def test_fit_rejects_constant_data(self):
        with pytest.raises(ValueError):
            Normal.fit(np.ones(100))

    def test_sample_statistics(self, rng):
        d = Normal(1.0, 0.5)
        x = d.sample(50_000, rng=rng)
        assert np.mean(x) == pytest.approx(1.0, abs=0.02)
        assert np.std(x) == pytest.approx(0.5, abs=0.02)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            Normal(float("nan"), 1.0)

    def test_ppf_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Normal(0, 1).ppf(1.5)

class TestGamma:
    def test_paper_parameterization(self):
        """Paper eq. 14: mean = s/lambda, var = s/lambda^2."""
        d = Gamma(shape=4.0, rate=2.0)
        assert d.mean() == pytest.approx(2.0)
        assert d.var() == pytest.approx(1.0)

    def test_from_moments_roundtrip(self):
        d = Gamma.from_moments(27_791.0, 6_254.0)
        assert d.mean() == pytest.approx(27_791.0)
        assert d.std() == pytest.approx(6_254.0)

    def test_pdf_integrates_to_one(self):
        d = Gamma.from_moments(10.0, 3.0)
        x = np.linspace(0, 60, 60001)
        assert np.trapezoid(d.pdf(x), x) == pytest.approx(1.0, abs=1e-6)

    def test_pdf_zero_for_nonpositive(self):
        d = Gamma(2.0, 1.0)
        assert d.pdf(0.0) == 0.0
        assert d.pdf(-1.0) == 0.0

    def test_cdf_monotone(self):
        d = Gamma.from_moments(5.0, 2.0)
        x = np.linspace(0.01, 30, 500)
        assert np.all(np.diff(d.cdf(x)) >= 0)

    def test_ppf_inverts_cdf(self):
        d = Gamma.from_moments(27_791.0, 6_254.0)
        q = np.linspace(0.001, 0.999, 51)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, rtol=1e-9)

    def test_exponential_special_case(self):
        """shape = 1 reduces to the exponential distribution."""
        d = Gamma(1.0, 0.5)
        x = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(d.sf(x), np.exp(-0.5 * x), rtol=1e-10)

    def test_loglog_ccdf_slope_decreases(self):
        """The log-log CCDF slope must decrease monotonically (so the
        hybrid splice point is unique)."""
        d = Gamma.from_moments(27_791.0, 6_254.0)
        x = np.linspace(10_000, 80_000, 100)
        slopes = -x * d.pdf(x) / d.sf(x)
        assert np.all(np.diff(slopes) < 0)

    def test_fit_recovers_moments(self, rng):
        data = rng.gamma(9.0, 2.0, size=100_000)
        d = Gamma.fit(data)
        assert d.mean() == pytest.approx(18.0, rel=0.02)

    def test_sample_moments(self, rng):
        d = Gamma.from_moments(100.0, 20.0)
        x = d.sample(50_000, rng=rng)
        assert np.mean(x) == pytest.approx(100.0, rel=0.01)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            Gamma(1.0, 0.0)


class TestLognormal:
    def test_from_moments_matches(self):
        d = Lognormal.from_moments(50.0, 12.0)
        assert d.mean() == pytest.approx(50.0)
        assert np.sqrt(d.var()) == pytest.approx(12.0)

    def test_pdf_integrates_to_one(self):
        d = Lognormal.from_moments(10.0, 5.0)
        x = np.linspace(0.001, 200, 200001)
        assert np.trapezoid(d.pdf(x), x) == pytest.approx(1.0, abs=1e-4)

    def test_pdf_zero_at_nonpositive(self):
        d = Lognormal(0.0, 1.0)
        assert d.pdf(0.0) == 0.0
        assert d.pdf(-3.0) == 0.0

    def test_ppf_inverts_cdf(self):
        d = Lognormal(1.0, 0.4)
        q = np.linspace(0.01, 0.99, 45)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-10)

    def test_median_is_exp_mu(self):
        d = Lognormal(2.0, 0.7)
        assert d.ppf(0.5) == pytest.approx(np.exp(2.0))

    def test_fit_is_mle_on_logs(self, rng):
        data = rng.lognormal(1.5, 0.3, size=50_000)
        d = Lognormal.fit(data)
        assert d.mu_log == pytest.approx(1.5, abs=0.01)
        assert d.sigma_log == pytest.approx(0.3, abs=0.01)

    def test_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Lognormal.fit(np.array([1.0, -2.0, 3.0]))

    def test_heavier_tail_than_gamma(self):
        """The paper chose Lognormal as the 'heavier-tail' candidate."""
        mean, std = 27_791.0, 6_254.0
        logn = Lognormal.from_moments(mean, std)
        gam = Gamma.from_moments(mean, std)
        x_far = mean + 8 * std
        assert logn.sf(x_far) > gam.sf(x_far)


class TestPareto:
    def test_paper_cdf_formula(self):
        """Paper eq. 16: F(x) = 1 - (k/x)^a."""
        d = Pareto(2.0, 3.0)
        x = np.array([2.5, 4.0, 10.0])
        np.testing.assert_allclose(d.cdf(x), 1.0 - (2.0 / x) ** 3.0)

    def test_support_starts_at_k(self):
        d = Pareto(5.0, 2.0)
        assert d.cdf(5.0) == 0.0
        assert d.pdf(4.999) == 0.0
        assert d.sf(4.0) == 1.0

    def test_loglog_ccdf_is_straight_line(self):
        """The defining property exploited in Fig. 4."""
        d = Pareto(1.0, 2.5)
        x = np.geomspace(1.5, 1000, 50)
        log_sf = np.log(d.sf(x))
        slopes = np.diff(log_sf) / np.diff(np.log(x))
        np.testing.assert_allclose(slopes, -2.5, rtol=1e-9)

    def test_ppf_inverts_cdf(self):
        d = Pareto(3.0, 1.5)
        q = np.linspace(0.0, 0.999, 40)
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-10)

    def test_infinite_mean_when_a_below_one(self):
        assert Pareto(1.0, 0.9).mean() == float("inf")

    def test_infinite_variance_when_a_below_two(self):
        assert Pareto(1.0, 1.5).var() == float("inf")
        assert np.isfinite(Pareto(1.0, 2.5).var())

    def test_finite_moments(self):
        d = Pareto(2.0, 3.0)
        assert d.mean() == pytest.approx(3.0)

    def test_hill_estimator_fit(self, rng):
        d = Pareto(1.0, 2.0)
        data = d.sample(100_000, rng=rng)
        fitted = Pareto.fit(data)
        assert fitted.a == pytest.approx(2.0, rel=0.03)

    def test_pdf_integrates_to_one(self):
        d = Pareto(1.0, 2.0)
        x = np.geomspace(1.0, 1e6, 400001)
        assert np.trapezoid(d.pdf(x), x) == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=1e6),
    cov=st.floats(min_value=0.05, max_value=2.0),
    q=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_gamma_ppf_cdf_roundtrip_property(mean, cov, q):
    """Property: CDF(PPF(q)) == q for any valid Gamma parameterization."""
    d = Gamma.from_moments(mean, mean * cov)
    assert d.cdf(d.ppf(q)) == pytest.approx(q, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    k=st.floats(min_value=0.01, max_value=1e4),
    a=st.floats(min_value=0.1, max_value=50.0),
    q=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
)
def test_pareto_ppf_cdf_roundtrip_property(k, a, q):
    """Property: CDF(PPF(q)) == q across the Pareto parameter space."""
    d = Pareto(k, a)
    assert d.cdf(d.ppf(q)) == pytest.approx(q, abs=1e-9)
