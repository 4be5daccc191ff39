"""Tests for the index of dispersion."""

import numpy as np
import pytest

from repro.analysis.dispersion import index_of_dispersion


class TestIndexOfDispersion:
    def test_iid_poisson_like_flat(self, rng):
        x = rng.poisson(10.0, size=100_000).astype(float)
        result = index_of_dispersion(x)
        assert abs(result.slope) < 0.1
        assert result.hurst == pytest.approx(0.5, abs=0.06)

    def test_fgn_growth_rate(self, fgn_path):
        """IDC grows like m^(2H-1) for LRD input."""
        x = fgn_path - fgn_path.min() + 1.0  # make non-negative
        result = index_of_dispersion(x)
        assert result.hurst == pytest.approx(0.8, abs=0.08)

    def test_reference_trace_lrd(self, small_series):
        result = index_of_dispersion(small_series)
        assert result.hurst > 0.7
        # IDC grows monotonically (up to noise) across decades.
        assert result.idc[-1] > 10 * result.idc[0]

    def test_consistent_with_variance_time(self, small_series):
        """IDC and variance-time measure the same exponent."""
        from repro.analysis.hurst import variance_time

        h_idc = index_of_dispersion(small_series).hurst
        h_vt = variance_time(small_series).hurst
        assert h_idc == pytest.approx(h_vt, abs=0.03)

    def test_rejects_negative_data(self):
        with pytest.raises(ValueError):
            index_of_dispersion(np.linspace(-1, 1, 500))

    def test_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            index_of_dispersion(np.zeros(500))
