"""Tests for the Davies-Harte FGN generator."""

import numpy as np
import pytest

from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.fractional import fgn_acf


def sample_acov(x, max_lag, demean=True):
    """Sample autocovariance.

    For short, strongly correlated FGN paths the *sample*-mean
    correction biases the autocovariance down by Var(mean) =
    n^(2H-2) -- substantial at n=128 -- so ensemble tests over many
    paths pass ``demean=False`` and rely on the known zero mean.
    """
    if demean:
        x = x - x.mean()
    n = x.size
    return np.array([float(np.dot(x[: n - k], x[k:])) / n for k in range(max_lag + 1)])


class TestConstruction:
    def test_rejects_invalid_hurst(self):
        with pytest.raises(ValueError):
            DaviesHarteGenerator(1.0)
        with pytest.raises(ValueError):
            DaviesHarteGenerator(0.0)

    def test_rejects_invalid_variance(self):
        with pytest.raises(ValueError):
            DaviesHarteGenerator(0.8, variance=-1.0)

    def test_length_one_path(self, rng):
        x = DaviesHarteGenerator(0.8).generate(1, rng=rng)
        assert x.shape == (1,)


class TestExactness:
    def test_unit_variance(self, rng):
        x = DaviesHarteGenerator(0.8).generate(2**14, rng=rng)
        assert np.var(x) == pytest.approx(1.0, abs=0.1)

    def test_variance_parameter(self, rng):
        x = DaviesHarteGenerator(0.7, variance=9.0).generate(2**13, rng=rng)
        assert np.var(x) == pytest.approx(9.0, rel=0.2)

    def test_autocovariance_matches_fgn(self, rng):
        """The generator is exact: the ensemble autocovariance equals
        the FGN autocovariance.  Averaging over many short paths keeps
        the Monte-Carlo error small."""
        h = 0.8
        gen = DaviesHarteGenerator(h)
        acc = np.zeros(6)
        reps = 400
        for _ in range(reps):
            x = gen.generate(128, rng=rng)
            acc += sample_acov(x, 5, demean=False)
        measured = acc / reps
        theory = fgn_acf(h, 5)
        np.testing.assert_allclose(measured, theory, atol=0.05)

    def test_white_noise_at_h_half(self, rng):
        x = DaviesHarteGenerator(0.5).generate(2**13, rng=rng)
        acov = sample_acov(x, 3)
        np.testing.assert_allclose(acov[1:] / acov[0], 0.0, atol=0.05)

    def test_hurst_recovered_by_estimators(self, fgn_path):
        from repro.analysis.hurst import variance_time

        est = variance_time(fgn_path)
        assert est.hurst == pytest.approx(0.8, abs=0.06)

    def test_increments_of_fbm_are_selfsimilar(self, rng):
        """Var of the cumulative sum over m steps scales like m^2H."""
        h = 0.8
        gen = DaviesHarteGenerator(h)
        reps, n = 300, 256
        totals = np.empty((reps, 2))
        for i in range(reps):
            x = gen.generate(n, rng=rng)
            totals[i, 0] = x[:16].sum()
            totals[i, 1] = x[:256].sum()
        ratio = totals[:, 1].var() / totals[:, 0].var()
        assert ratio == pytest.approx((256 / 16) ** (2 * h), rel=0.35)


class TestCachingAndDeterminism:
    def test_eigenvalue_cache_reused(self, rng):
        gen = DaviesHarteGenerator(0.8)
        gen.generate(512, rng=rng)
        cached = gen._cached_sqrt_eig
        gen.generate(512, rng=rng)
        assert gen._cached_sqrt_eig is cached

    def test_cache_invalidated_on_new_length(self, rng):
        gen = DaviesHarteGenerator(0.8)
        gen.generate(256, rng=rng)
        gen.generate(512, rng=rng)
        assert gen._cached_n == 512

    def test_reproducible(self):
        a = DaviesHarteGenerator(0.8).generate(300, rng=np.random.default_rng(8))
        b = DaviesHarteGenerator(0.8).generate(300, rng=np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)


class TestAgreementWithHosking:
    def test_same_long_range_behaviour(self, rng):
        """Hosking fARIMA and Davies-Harte FGN with the same H must
        yield indistinguishable variance-time slopes."""
        from repro.analysis.hurst import variance_time

        from repro.core.hosking import HoskingGenerator

        h = 0.75
        x_hosk = HoskingGenerator(hurst=h).generate(4096, rng=rng)
        x_dh = DaviesHarteGenerator(h).generate(4096, rng=rng)
        h1 = variance_time(x_hosk).hurst
        h2 = variance_time(x_dh).hurst
        assert h1 == pytest.approx(h2, abs=0.12)
