"""Tests for Paxson's FFT-based approximate fGn synthesizer.

The exact Davies-Harte generator is the yardstick throughout: the
Paxson path is *approximate*, so the tests assert that its sample
statistics (variance, autocorrelation, Hurst estimates) agree with the
exact generator's, rather than pinning absolute constants that the
known small bias of parametric estimators on fGn would break.
"""

import numpy as np
import pytest

from repro.analysis.correlation import autocorrelation
from repro.analysis.hurst import variance_time, whittle
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.fractional import fgn_acf
from repro.core.paxson import PaxsonGenerator, fgn_spectral_density
from repro.qa import stats as qa


class TestSpectralDensity:
    def test_positive_on_domain(self):
        lam = np.linspace(1e-4, np.pi, 500)
        for hurst in (0.55, 0.7, 0.8, 0.9):
            assert np.all(fgn_spectral_density(lam, hurst) > 0)

    def test_low_frequency_power_law(self):
        """f(l; H) ~ c * l^{1-2H} as l -> 0 (long-range dependence)."""
        hurst = 0.8
        lam = np.array([1e-4, 1e-3])
        f = fgn_spectral_density(lam, hurst)
        slope = np.log(f[1] / f[0]) / np.log(lam[1] / lam[0])
        assert slope == pytest.approx(1.0 - 2.0 * hurst, abs=0.01)

    def test_white_noise_is_flat(self):
        """H = 1/2 is ordinary white noise: constant spectral density."""
        lam = np.linspace(0.1, np.pi, 200)
        f = fgn_spectral_density(lam, 0.5)
        assert np.ptp(f) / np.mean(f) < 0.01

    def test_rejects_out_of_range_frequencies(self):
        with pytest.raises(ValueError):
            fgn_spectral_density(np.array([0.0, 1.0]), 0.8)
        with pytest.raises(ValueError):
            fgn_spectral_density(np.array([3.5]), 0.8)

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            fgn_spectral_density(np.array([1.0]), 1.0)


class TestPaxsonGenerator:
    def test_moments(self):
        """The sample mean of fGn has exact SE sigma * n^(H-1); a
        z-test with that SE replaces the old magic +-0.2 band."""
        n = 2**16
        x = PaxsonGenerator(0.8, variance=4.0).generate(n, rng=np.random.default_rng(0))
        qa.require(
            qa.z_test(
                float(np.mean(x)), 0.0, qa.fgn_mean_std_error(n, 0.8, variance=4.0),
                alpha=1e-3, name="paxson sample mean",
            )
        )

    def test_variance_normalization_is_exact_in_expectation(self):
        """Averaged over many paths the sample variance hits the
        target: a Monte-Carlo z-test, not a hand-picked rel band."""
        gen = PaxsonGenerator(0.8)
        rng = np.random.default_rng(1)
        vars_ = [np.var(gen.generate(4096, rng=rng)) for _ in range(50)]
        qa.require(qa.mc_mean_check(vars_, 1.0, alpha=1e-3, name="paxson variance normalization"))

    def test_acf_matches_theory(self):
        """Per-lag TOST against the theoretical fGn ACF.  The margin
        (0.06) covers the known finite-sample downward bias of the
        sample ACF under LRD (~0.03 at n = 2^13) plus Monte-Carlo
        noise; alpha bounds the false-certification rate."""
        gen = PaxsonGenerator(0.8)
        rng = np.random.default_rng(2)
        acfs = np.array(
            [autocorrelation(gen.generate(2**13, rng=rng), 5)[1:] for _ in range(12)]
        )
        want = fgn_acf(0.8, 5)[1:]
        qa.require(
            *(
                qa.equivalence_check(
                    acfs[:, k], want[k], margin=0.06, alpha=1e-3,
                    name=f"paxson ACF lag {k + 1}",
                )
                for k in range(want.size)
            )
        )

    def test_hurst_estimates_match_exact_generator(self):
        """The parametric Whittle estimator has a known model-mismatch
        bias on true fGn; Paxson must land where the exact generator
        lands, not at the nominal H.  Welch z-tests over independent
        paths replace the old +-0.03/+-0.06 magic tolerances."""
        n = 2**13
        rng = np.random.default_rng(3)
        exact_paths = [DaviesHarteGenerator(0.8).generate(n, rng=rng) for _ in range(6)]
        approx_paths = [PaxsonGenerator(0.8).generate(n, rng=rng) for _ in range(6)]
        qa.require(
            qa.mc_agreement_check(
                [whittle(p).hurst for p in exact_paths],
                [whittle(p).hurst for p in approx_paths],
                alpha=1e-3, name="whittle H: davies-harte vs paxson",
            ),
            qa.mc_agreement_check(
                [variance_time(p).hurst for p in exact_paths],
                [variance_time(p).hurst for p in approx_paths],
                alpha=1e-3, name="variance-time H: davies-harte vs paxson",
            ),
        )

    def test_odd_length(self):
        x = PaxsonGenerator(0.8).generate(1001, rng=np.random.default_rng(4))
        assert x.shape == (1001,)

    def test_length_one(self):
        x = PaxsonGenerator(0.8).generate(1, rng=np.random.default_rng(5))
        assert x.shape == (1,)

    @pytest.mark.parametrize("n", [26, 52, 94, 104])
    def test_nyquist_rounding_lengths(self, n):
        # For these n the top grid frequency (2 pi (n/2)) / n rounds one
        # ulp above pi; the clamp in _sqrt_power must keep them legal
        # (found by the tier-2 batch fuzz, tests/test_qa_batch_fuzz.py).
        x = PaxsonGenerator(0.8).generate(n, rng=np.random.default_rng(5))
        assert x.shape == (n,)
        assert np.all(np.isfinite(x))

    def test_deterministic_under_seed(self):
        gen = PaxsonGenerator(0.8)
        a = gen.generate(1024, rng=np.random.default_rng(6))
        b = gen.generate(1024, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_power_profile_cached(self):
        gen = PaxsonGenerator(0.8)
        gen.generate(1024, rng=np.random.default_rng(7))
        cached = gen._cached_sqrt_power
        gen.generate(1024, rng=np.random.default_rng(8))
        assert gen._cached_sqrt_power is cached

    def test_repr(self):
        assert "PaxsonGenerator" in repr(PaxsonGenerator(0.8))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PaxsonGenerator(1.2)
        with pytest.raises(ValueError):
            PaxsonGenerator(0.8, variance=0.0)
        with pytest.raises(ValueError):
            PaxsonGenerator(0.8).generate(0)


class TestModelIntegration:
    def test_generate_gaussian_backend(self):
        from repro.core.model import VBRVideoModel

        model = VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)
        g = model.generate_gaussian(4096, rng=np.random.default_rng(10), generator="paxson")
        assert np.var(g) == pytest.approx(1.0, rel=0.2)

    def test_full_model_marginal(self):
        from repro.core.model import VBRVideoModel

        model = VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)
        x = model.generate(2**14, rng=np.random.default_rng(11), generator="paxson")
        assert np.mean(x) == pytest.approx(27_791.0, rel=0.05)
        assert np.all(x > 0)
