"""Tests for fractional differencing math (Section 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.core.fractional import (
    d_from_hurst,
    farima_acf,
    fgn_acf,
    fractional_binomial_weights,
)


class TestParameterMaps:
    def test_d_from_hurst(self):
        assert d_from_hurst(0.8) == pytest.approx(0.3)
        assert d_from_hurst(0.5) == pytest.approx(0.0)

    def test_roundtrip(self):
        for h in (0.55, 0.7, 0.9):
            assert d_from_hurst(h) + 0.5 == pytest.approx(h)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            d_from_hurst(1.0)
        with pytest.raises(ValueError):
            d_from_hurst(0.0)


class TestFarimaACF:
    def test_lag_zero_is_one(self):
        assert farima_acf(0.3, 0)[0] == 1.0

    def test_matches_gamma_formula(self):
        """Eq. 6 equals Gamma(1-d)Gamma(k+d) / (Gamma(d)Gamma(k+1-d))."""
        d = 0.3
        acf = farima_acf(d, 50)
        k = np.arange(1, 51, dtype=float)
        expected = np.exp(
            special.gammaln(1 - d)
            + special.gammaln(k + d)
            - special.gammaln(d)
            - special.gammaln(k + 1 - d)
        )
        np.testing.assert_allclose(acf[1:], expected, rtol=1e-10)

    def test_first_lag_value(self):
        """rho_1 = d / (1 - d) from the product formula."""
        d = 0.25
        assert farima_acf(d, 1)[1] == pytest.approx(d / (1 - d))

    def test_hyperbolic_decay_rate(self):
        """rho_k ~ k^(2d-1): the log-log slope converges to 2d - 1."""
        d = 0.3
        acf = farima_acf(d, 10_000)
        k1, k2 = 1_000, 10_000
        slope = np.log(acf[k2] / acf[k1]) / np.log(k2 / k1)
        assert slope == pytest.approx(2 * d - 1, abs=0.01)

    def test_positive_for_positive_d(self):
        assert np.all(farima_acf(0.4, 200) > 0)

    def test_negative_d_gives_negative_correlations(self):
        acf = farima_acf(-0.3, 10)
        assert acf[1] < 0

    def test_zero_d_is_white_noise(self):
        acf = farima_acf(0.0, 4)
        np.testing.assert_allclose(acf, [1, 0, 0, 0, 0], atol=1e-15)

    def test_not_summable_for_lrd(self):
        """LRD definition (i): the ACF sum diverges -- partial sums keep
        growing with the horizon."""
        d = 0.3
        s1 = farima_acf(d, 1_000).sum()
        s2 = farima_acf(d, 10_000).sum()
        assert s2 > 1.5 * s1


class TestFGNACF:
    def test_lag_zero_is_variance(self):
        assert fgn_acf(0.8, 5, variance=2.5)[0] == pytest.approx(2.5)

    def test_h_half_is_white_noise(self):
        acf = fgn_acf(0.5, 10)
        np.testing.assert_allclose(acf[1:], 0.0, atol=1e-12)

    def test_positive_correlations_for_persistent(self):
        assert np.all(fgn_acf(0.8, 100)[1:] > 0)

    def test_negative_correlations_for_antipersistent(self):
        assert fgn_acf(0.3, 10)[1] < 0

    def test_hyperbolic_decay(self):
        """gamma(k) ~ H(2H-1) k^(2H-2) for large k."""
        h = 0.8
        acf = fgn_acf(h, 10_000)
        k = 5_000
        expected = h * (2 * h - 1) * k ** (2 * h - 2)
        assert acf[k] == pytest.approx(expected, rel=1e-3)

    def test_aggregation_invariance(self):
        """FGN is exactly self-similar: the ACF of the aggregated
        process equals the original ACF (the Section 3.2.2 definition).
        Verified through the variance identity
        Var(X^(m)) = sigma^2 m^(2H-2)."""
        h = 0.75
        m = 8
        gamma = fgn_acf(h, m)
        # Var of the block mean from the covariances:
        weights = m - np.abs(np.arange(-m + 1, m))
        var_mean = np.sum(weights * fgn_acf(h, m - 1)[np.abs(np.arange(-m + 1, m))]) / m**2
        assert var_mean == pytest.approx(m ** (2 * h - 2), rel=1e-10)
        assert gamma[0] == pytest.approx(1.0)


class TestFractionalWeights:
    def test_first_weight_is_one(self):
        assert fractional_binomial_weights(0.3, 5)[0] == 1.0

    def test_second_weight_is_minus_d(self):
        """binom(d,1)(-1) = -d."""
        assert fractional_binomial_weights(0.3, 5)[1] == pytest.approx(-0.3)

    def test_matches_recursion(self):
        """w_i = w_{i-1} * (i - 1 - d) / i."""
        d = 0.4
        w = fractional_binomial_weights(d, 20)
        for i in range(2, 20):
            assert w[i] == pytest.approx(w[i - 1] * (i - 1 - d) / i, rel=1e-10)

    def test_zero_d_identity_operator(self):
        w = fractional_binomial_weights(0.0, 6)
        np.testing.assert_allclose(w, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_differencing_whitens_farima(self, rng):
        """Applying nabla^d to a fARIMA(0,d,0) path approximately
        recovers white noise -- the defining inverse relation."""
        from repro.core.hosking import hosking_farima

        d = 0.3
        x = hosking_farima(3000, hurst=0.5 + d, rng=rng)
        w = fractional_binomial_weights(d, 300)
        filtered = np.convolve(x, w, mode="valid")
        acf1 = np.corrcoef(filtered[:-1], filtered[1:])[0, 1]
        assert abs(acf1) < 0.08
        # The truncated (300-tap) operator loses a little variance in
        # the slowly decaying weight tail; ~0.9 is the expected level.
        assert 0.8 < np.std(filtered) < 1.1


@settings(max_examples=30, deadline=None)
@given(d=st.floats(min_value=-0.45, max_value=0.45))
def test_farima_acf_bounded_property(d):
    """Property: autocorrelations lie in [-1, 1] and start at 1."""
    acf = farima_acf(d, 100)
    assert acf[0] == 1.0
    assert np.all(np.abs(acf) <= 1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(h=st.floats(min_value=0.05, max_value=0.95))
def test_fgn_acf_psd_property(h):
    """Property: the FGN autocovariance is positive semi-definite (its
    circulant embedding has non-negative eigenvalues) -- exactly the
    condition the Davies-Harte generator relies on."""
    n = 64
    gamma = fgn_acf(h, n)
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    eig = np.fft.fft(row).real
    assert eig.min() > -1e-9
