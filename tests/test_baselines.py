"""Tests for the baseline traffic models of the Fig. 16 comparison."""

import numpy as np
import pytest

from repro.core.baselines import GaussianFarimaModel, IIDGammaParetoModel
from repro.distributions import GammaParetoHybrid


@pytest.fixture(scope="module")
def marginal():
    return GammaParetoHybrid(1000.0, 250.0, 8.0)


class TestIIDGammaPareto:
    def test_marginal_statistics(self, marginal, rng):
        y = IIDGammaParetoModel(marginal).generate(50_000, rng=rng)
        assert np.mean(y) == pytest.approx(marginal.mean(), rel=0.02)

    def test_no_time_correlation(self, marginal, rng):
        y = IIDGammaParetoModel(marginal).generate(20_000, rng=rng)
        r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(r1) < 0.03

    def test_h_half(self, marginal, rng):
        from repro.analysis.hurst import variance_time

        y = IIDGammaParetoModel(marginal).generate(2**14, rng=rng)
        assert variance_time(y).hurst == pytest.approx(0.5, abs=0.07)

    def test_rejects_non_distribution(self):
        with pytest.raises(TypeError):
            IIDGammaParetoModel(42)


class TestGaussianFarima:
    def test_mean_and_std(self, rng):
        m = GaussianFarimaModel(1000.0, 100.0, 0.8, generator="davies-harte")
        y = m.generate(20_000, rng=rng)
        assert np.mean(y) == pytest.approx(1000.0, rel=0.05)
        assert np.std(y) == pytest.approx(100.0, rel=0.15)

    def test_no_heavy_tail(self, rng):
        """Gaussian marginals: essentially no mass beyond 5 sigma."""
        m = GaussianFarimaModel(1000.0, 100.0, 0.8, generator="davies-harte")
        y = m.generate(50_000, rng=rng)
        assert np.max(y) < 1000.0 + 6.5 * 100.0

    def test_retains_lrd(self, rng):
        from repro.analysis.hurst import variance_time

        m = GaussianFarimaModel(1000.0, 100.0, 0.8, generator="davies-harte")
        y = m.generate(2**14, rng=rng)
        assert variance_time(y).hurst == pytest.approx(0.8, abs=0.08)

    def test_clipping_at_zero(self, rng):
        """High-CoV Gaussian traffic is clipped at zero (no negative
        bandwidth)."""
        m = GaussianFarimaModel(10.0, 100.0, 0.6, generator="davies-harte")
        y = m.generate(5_000, rng=rng)
        assert np.all(y >= 0)

    def test_rejects_bad_generator(self):
        with pytest.raises(ValueError):
            GaussianFarimaModel(1.0, 1.0, 0.8, generator="spectral")
