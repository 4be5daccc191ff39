"""Tests for Hosking's exact fARIMA(0, d, 0) generator (eqs. 7-12)."""

import numpy as np
import pytest

from repro.core.fractional import farima_acf
from repro.core.hosking import HoskingGenerator, hosking_farima


def sample_acf(x, max_lag):
    x = x - x.mean()
    denom = float(np.dot(x, x))
    return np.array(
        [1.0] + [float(np.dot(x[:-k], x[k:])) / denom for k in range(1, max_lag + 1)]
    )


class TestConstruction:
    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            HoskingGenerator()
        with pytest.raises(ValueError):
            HoskingGenerator(hurst=0.8, d=0.3)

    def test_hurst_d_consistency(self):
        g = HoskingGenerator(hurst=0.8)
        assert g.d == pytest.approx(0.3)
        g2 = HoskingGenerator(d=0.3)
        assert g2.hurst == pytest.approx(0.8)

    def test_rejects_invalid_d(self):
        with pytest.raises(ValueError):
            HoskingGenerator(d=0.5)
        with pytest.raises(ValueError):
            HoskingGenerator(d=-0.5)

    def test_rejects_invalid_variance(self):
        with pytest.raises(ValueError):
            HoskingGenerator(hurst=0.8, variance=0.0)


class TestStatisticalProperties:
    def test_marginal_mean_and_variance(self, rng):
        x = HoskingGenerator(hurst=0.8).generate(6000, rng=rng)
        assert np.mean(x) == pytest.approx(0.0, abs=0.3)
        assert np.var(x) == pytest.approx(1.0, abs=0.15)

    def test_variance_parameter_respected(self, rng):
        x = HoskingGenerator(hurst=0.7, variance=4.0).generate(4000, rng=rng)
        assert np.var(x) == pytest.approx(4.0, rel=0.2)

    def test_sample_acf_matches_theory(self, rng):
        """The empirical ACF must track eq. 6 at short lags."""
        d = 0.3
        x = HoskingGenerator(d=d).generate(8000, rng=rng)
        theory = farima_acf(d, 10)
        measured = sample_acf(x, 10)
        np.testing.assert_allclose(measured, theory, atol=0.08)

    def test_white_noise_at_h_half(self, rng):
        x = HoskingGenerator(hurst=0.5).generate(5000, rng=rng)
        measured = sample_acf(x, 5)
        np.testing.assert_allclose(measured[1:], 0.0, atol=0.05)

    def test_antipersistent_first_lag(self, rng):
        x = HoskingGenerator(d=-0.3).generate(4000, rng=rng)
        assert sample_acf(x, 1)[1] < -0.2

    def test_hurst_recoverable(self, rng):
        from repro.analysis.hurst import whittle

        x = HoskingGenerator(hurst=0.8).generate(8192, rng=rng)
        est = whittle(x, normalize=None)
        assert est.ci_low - 0.02 <= 0.8 <= est.ci_high + 0.02

    def test_gaussian_marginals(self, rng):
        from scipy import stats

        x = HoskingGenerator(hurst=0.75).generate(4000, rng=rng)
        # Normalized sample should pass a loose normality check.
        z = (x - x.mean()) / x.std()
        _, p = stats.kstest(z, "norm")
        assert p > 0.01


class TestDeterminismAndStreaming:
    def test_reproducible_with_seeded_rng(self):
        a = HoskingGenerator(hurst=0.8).generate(500, rng=np.random.default_rng(5))
        b = HoskingGenerator(hurst=0.8).generate(500, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_streaming_matches_statistics(self, rng):
        g = HoskingGenerator(hurst=0.8)
        g.reset()
        xs = [g.next(rng) for _ in range(600)]
        assert np.var(xs) == pytest.approx(1.0, abs=0.35)

    def test_streaming_acf(self):
        rng = np.random.default_rng(17)
        g = HoskingGenerator(d=0.3)
        xs = np.array([g.next(rng) for _ in range(3000)])
        measured = sample_acf(xs, 3)
        theory = farima_acf(0.3, 3)
        np.testing.assert_allclose(measured, theory, atol=0.1)

    def test_generate_resets_state(self, rng):
        g = HoskingGenerator(hurst=0.7)
        g.generate(100, rng=rng)
        again = g.generate(50, rng=np.random.default_rng(3))
        fresh = HoskingGenerator(hurst=0.7).generate(50, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(again, fresh)

    def test_wrapper_function(self, rng):
        x = hosking_farima(200, hurst=0.8, rng=rng)
        assert x.shape == (200,)

    def test_rejects_bad_length(self, rng):
        with pytest.raises(ValueError):
            HoskingGenerator(hurst=0.8).generate(0, rng=rng)


class TestConditionalRecursion:
    def test_variance_sequence_decreasing(self):
        """v_k = (1 - phi_kk^2) v_{k-1} is non-increasing: conditioning
        on more history can only reduce the prediction variance."""
        rng = np.random.default_rng(3)
        g = HoskingGenerator(d=0.4)
        g.reset()
        variances = []
        for _ in range(50):
            g.next(rng)
            variances.append(g._v)
        assert all(b <= a + 1e-12 for a, b in zip(variances, variances[1:]))

    def test_first_partial_autocorrelation(self):
        """phi_11 = rho_1 = d / (1 - d)."""
        rng = np.random.default_rng(4)
        g = HoskingGenerator(d=0.3)
        g.reset()
        g.next(rng)
        g.next(rng)
        assert g._phi[0] == pytest.approx(0.3 / 0.7, rel=1e-10)


class TestExtend:
    """The resumable extend() API behind the streaming sources."""

    def test_extend_equals_generate(self):
        ref = HoskingGenerator(hurst=0.8).generate(400, rng=np.random.default_rng(17))
        g = HoskingGenerator(hurst=0.8)
        out = g.extend(400, rng=np.random.default_rng(17))
        np.testing.assert_array_equal(out, ref)

    def test_chunked_extend_byte_compatible(self):
        """Any chunking of extend() reproduces the batch draw exactly
        (the Gaussian stream split invariance of numpy generators)."""
        ref = HoskingGenerator(hurst=0.8).generate(500, rng=np.random.default_rng(23))
        for chunks in ([500], [1] * 10 + [490], [123, 77, 300], [499, 1]):
            g = HoskingGenerator(hurst=0.8)
            rng = np.random.default_rng(23)
            parts = [g.extend(k, rng=rng) for k in chunks]
            np.testing.assert_array_equal(np.concatenate(parts), ref)

    def test_extend_returns_only_new_samples(self):
        g = HoskingGenerator(hurst=0.8)
        rng = np.random.default_rng(5)
        a = g.extend(100, rng=rng)
        b = g.extend(50, rng=rng)
        assert a.shape == (100,)
        assert b.shape == (50,)
        whole = HoskingGenerator(hurst=0.8).extend(150, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(np.concatenate([a, b]), whole)

    def test_extend_after_next(self):
        """next() and extend() share the same recursion state."""
        rng = np.random.default_rng(9)
        g = HoskingGenerator(hurst=0.8)
        g.reset()
        singles = [g.next(rng) for _ in range(30)]
        state = rng.bit_generator.state
        more = g.extend(20, rng=rng)
        rng.bit_generator.state = state
        unconditioned = HoskingGenerator(hurst=0.8).extend(20, rng=rng)
        assert len(singles) == 30 and more.shape == (20,)
        assert not np.array_equal(more, unconditioned)

    def test_wrapper_byte_compatible_with_streaming(self):
        """hosking_farima stays the reference the stream sources hit."""
        ref = hosking_farima(300, hurst=0.75, rng=np.random.default_rng(31))
        g = HoskingGenerator(hurst=0.75)
        rng = np.random.default_rng(31)
        out = np.concatenate([g.extend(100, rng=rng) for _ in range(3)])
        np.testing.assert_array_equal(out, ref)

    def test_reset_clears_extend_state(self):
        g = HoskingGenerator(hurst=0.8)
        g.extend(50, rng=np.random.default_rng(1))
        g.reset()
        again = g.extend(50, rng=np.random.default_rng(1))
        g2 = HoskingGenerator(hurst=0.8)
        np.testing.assert_array_equal(again, g2.extend(50, rng=np.random.default_rng(1)))

    def test_extend_rejects_bad_length(self):
        with pytest.raises(ValueError):
            HoskingGenerator(hurst=0.8).extend(0, rng=np.random.default_rng(0))
