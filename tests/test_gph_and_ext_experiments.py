"""Tests for the GPH log-periodogram estimator."""

import numpy as np
import pytest

from repro.analysis.hurst import gph


class TestGPH:
    def test_fgn_08(self, fgn_path):
        est = gph(fgn_path, normalize=None)
        assert est.hurst == pytest.approx(0.8, abs=0.12)

    def test_white_noise(self, rng):
        est = gph(rng.standard_normal(2**14), normalize=None)
        assert est.hurst == pytest.approx(0.5, abs=3 * est.std_error)

    def test_robust_to_marginal(self, fgn_path):
        est_raw = gph(fgn_path, normalize=None)
        est_exp = gph(np.exp(fgn_path), normalize="normal-scores")
        assert est_exp.hurst == pytest.approx(est_raw.hurst, abs=0.05)

    def test_robust_to_short_range_contamination(self, rng):
        """GPH only uses the lowest frequencies, so adding AR(1) noise
        must not move the estimate much (its selling point over the
        parametric Whittle)."""
        from scipy.signal import lfilter

        from repro.core.daviesharte import DaviesHarteGenerator

        lrd = DaviesHarteGenerator(0.8).generate(2**15, rng=rng)
        # Zero-mean AR(1), x_k = 0.7 x_{k-1} + e_k with unit innovations.
        srd = lfilter([1.0], [1.0, -0.7], rng.standard_normal(2**15))
        contaminated = lrd + 0.5 * srd
        est = gph(contaminated, normalize=None)
        assert est.hurst == pytest.approx(0.8, abs=0.15)

    def test_reference_trace_in_band(self, small_series):
        est = gph(small_series)
        assert 0.65 < est.hurst < 1.05
