"""Tests for the wavelet Hurst estimator and Norros' formulas."""

import numpy as np
import pytest

from repro.analysis.wavelet import haar_detail_energy, wavelet_hurst
from repro.simulation.norros import norros_capacity, norros_kappa


class TestHaarPyramid:
    def test_energy_counts_halve(self, rng):
        x = rng.standard_normal(1024)
        octaves, energies, counts = haar_detail_energy(x)
        assert counts[0] == 512
        assert counts[1] == 256
        assert np.all(energies > 0)

    def test_white_noise_flat_energy(self, rng):
        """For white noise every octave has unit detail energy."""
        x = rng.standard_normal(2**16)
        _, energies, _ = haar_detail_energy(x, max_octaves=8)
        np.testing.assert_allclose(energies, 1.0, rtol=0.15)

    def test_orthonormality_preserves_energy(self, rng):
        """Details + final smooth carry exactly the input energy."""
        x = rng.standard_normal(256)
        smooth = x.copy()
        total_detail = 0.0
        for _ in range(8):
            n = smooth.size // 2
            pairs = smooth[: 2 * n].reshape(n, 2)
            d = (pairs[:, 0] - pairs[:, 1]) / np.sqrt(2)
            smooth = (pairs[:, 0] + pairs[:, 1]) / np.sqrt(2)
            total_detail += float(np.sum(d**2))
        assert total_detail + float(np.sum(smooth**2)) == pytest.approx(
            float(np.sum(x**2)), rel=1e-12
        )


class TestWaveletHurst:
    def test_fgn_08(self, fgn_path):
        assert wavelet_hurst(fgn_path).hurst == pytest.approx(0.8, abs=0.06)

    def test_white_noise(self, rng):
        x = rng.standard_normal(2**15)
        assert wavelet_hurst(x).hurst == pytest.approx(0.5, abs=0.06)

    def test_robust_to_constant_trend(self, fgn_path):
        """Haar details kill constants: adding a level shift changes
        nothing (one vanishing moment)."""
        shifted = fgn_path + 1000.0
        a = wavelet_hurst(fgn_path).hurst
        b = wavelet_hurst(shifted).hurst
        assert a == pytest.approx(b, abs=1e-9)

    def test_elevated_on_reference_trace(self, small_series):
        """On the video trace the wavelet estimator agrees the process
        is strongly LRD.  Its coarsest octaves weight the story-arc
        frequencies heavily (like the un-aggregated Whittle), so its
        point estimate runs above the variance-time one; both sit far
        above the SRD value 0.5."""
        from repro.analysis.hurst import variance_time

        h_wav = wavelet_hurst(small_series).hurst
        h_vt = variance_time(small_series).hurst
        assert h_wav > 0.7
        assert h_wav == pytest.approx(h_vt, abs=0.25)

class TestNorrosFormulas:
    def test_kappa_symmetric_minimum(self):
        """kappa(1/2) = 1/2 is the minimum; kappa is symmetric in H."""
        assert norros_kappa(0.5) == pytest.approx(0.5)
        assert norros_kappa(0.3) == pytest.approx(norros_kappa(0.7), rel=1e-12)
        assert norros_kappa(0.8) > 0.5
        assert norros_kappa(0.99) < 1.0

    def test_capacity_buffer_probability_consistency(self):
        """The dimensioning formula inverts Norros' queue tail exactly:
        ``P(V > b) = exp(-(C - m)^{2H} b^{2-2H} / (2 kappa^2 a m))``."""
        m, a, h = 1000.0, 50.0, 0.8
        eps = 1e-4
        b = 1e5
        c = norros_capacity(m, a, b, eps, h)
        exponent = (c - m) ** (2 * h) * b ** (2 - 2 * h) / (2 * norros_kappa(h) ** 2 * a * m)
        assert np.exp(-exponent) == pytest.approx(eps, rel=1e-9)

    def test_capacity_exceeds_mean(self):
        assert norros_capacity(1000.0, 50.0, 1e5, 1e-3, 0.8) > 1000.0

    def test_higher_h_needs_more_capacity(self):
        """The LRD penalty: at matched marginal statistics, a higher H
        demands more capacity for the same buffer and target."""
        base = dict(mean_rate=1000.0, variance_coeff=50.0, buffer_size=1e5,
                    overflow_probability=1e-4)
        assert norros_capacity(hurst=0.85, **base) > norros_capacity(hurst=0.6, **base)

    def test_buffering_ineffective_for_high_h(self):
        """Doubling the buffer cuts the required excess capacity by
        2^{-(1-H)/H}: a mere 16% for H = 0.8 versus 50% for H = 0.5."""
        m, a, eps = 1000.0, 50.0, 1e-4
        for h, expected in ((0.8, 2 ** (-0.25)), (0.5001, 2 ** (-1.0))):
            c1 = norros_capacity(m, a, 1e5, eps, h) - m
            c2 = norros_capacity(m, a, 2e5, eps, h) - m
            assert c2 / c1 == pytest.approx(expected, rel=0.01)

    def test_formula_against_simulation(self):
        """Theory-vs-simulation: Norros' capacity lands within a factor
        ~1.5 of the simulated requirement for FGN traffic (the formula
        is a large-deviations asymptotic, so order-of-magnitude
        agreement is the expectation)."""
        from repro.core.daviesharte import DaviesHarteGenerator
        from repro.simulation.qc import required_capacity

        h = 0.8
        mean, sd = 10_000.0, 2_000.0
        rng = np.random.default_rng(3)
        x = np.clip(mean + sd * DaviesHarteGenerator(h).generate(2**16, rng=rng), 0, None)
        buffer_bytes = 50_000.0
        eps = 1e-3
        simulated = required_capacity([x], buffer_bytes, eps)
        a = sd**2 / mean
        theory = norros_capacity(mean, a, buffer_bytes, eps, h)
        assert 0.6 * simulated < theory < 1.6 * simulated
