"""Tests for i.i.d. vs LRD confidence intervals (Fig. 9)."""

import numpy as np
import pytest

from repro.analysis.confidence import lrd_mean_ci, mean_confidence_convergence
from repro.core.daviesharte import DaviesHarteGenerator


class TestLrdMeanCI:
    def test_reduces_to_iid_at_half(self, rng):
        x = rng.standard_normal(10_000)
        mean, hw = lrd_mean_ci(x, hurst=0.5)
        expected = 1.959963985 * np.std(x, ddof=1) / np.sqrt(x.size)
        assert hw == pytest.approx(expected, rel=1e-6)
        assert mean == pytest.approx(np.mean(x))

    def test_wider_for_higher_hurst(self, rng):
        x = rng.standard_normal(10_000)
        _, hw_iid = lrd_mean_ci(x, hurst=0.5)
        _, hw_lrd = lrd_mean_ci(x, hurst=0.8)
        assert hw_lrd > 5 * hw_iid

    def test_scaling_exponent(self, rng):
        """Halfwidth scales as n^(H-1)."""
        x = rng.standard_normal(40_000)
        _, hw_small = lrd_mean_ci(x[:10_000], hurst=0.8)
        _, hw_large = lrd_mean_ci(x, hurst=0.8)
        expected_ratio = (40_000 / 10_000) ** (0.8 - 1.0)
        assert hw_large / hw_small == pytest.approx(expected_ratio, rel=0.05)

    def test_rejects_bad_hurst(self, rng):
        with pytest.raises(ValueError):
            lrd_mean_ci(rng.standard_normal(100), 1.0)


class TestMeanConvergence:
    def test_structure(self, small_series):
        conv = mean_confidence_convergence(small_series, 0.8)
        assert conv.sample_sizes.size == conv.means.size
        assert conv.iid_halfwidths.shape == conv.lrd_halfwidths.shape
        assert conv.final_mean == pytest.approx(float(np.mean(small_series)))

    def test_lrd_wider_than_iid(self, small_series):
        conv = mean_confidence_convergence(small_series, 0.8)
        assert np.all(conv.lrd_halfwidths >= conv.iid_halfwidths)

    def test_iid_coverage_fails_for_lrd_data(self):
        """The paper's Fig. 9 message: conventional CIs on LRD data
        are far too narrow.  LRD-aware CIs must beat i.i.d. CIs on
        honest coverage, averaged over realizations."""
        gen = DaviesHarteGenerator(0.85)
        iid_cov = []
        lrd_cov = []
        for seed in range(12):
            x = gen.generate(2**13, rng=np.random.default_rng(seed))
            conv = mean_confidence_convergence(x, 0.85)
            iid_cov.append(conv.iid_coverage())
            lrd_cov.append(conv.lrd_coverage())
        assert np.mean(lrd_cov) > np.mean(iid_cov) + 0.2
        assert np.mean(iid_cov) < 0.6

    def test_iid_coverage_fine_for_iid_data(self, rng):
        x = rng.standard_normal(2**13)
        conv = mean_confidence_convergence(x, 0.5)
        # i.i.d. CIs on genuinely i.i.d. data: most prefixes covered.
        assert conv.iid_coverage() > 0.6

    def test_explicit_sample_sizes(self, small_series):
        conv = mean_confidence_convergence(small_series, 0.8, sample_sizes=[100, 1000])
        assert conv.sample_sizes.tolist() == [100, 1000]

    def test_rejects_out_of_range_sizes(self, small_series):
        with pytest.raises(ValueError):
            mean_confidence_convergence(small_series, 0.8, sample_sizes=[10**9])

    def test_halfwidths_shrink_with_n(self, small_series):
        conv = mean_confidence_convergence(small_series, 0.8)
        assert conv.iid_halfwidths[-1] < conv.iid_halfwidths[0]
        assert conv.lrd_halfwidths[-1] < conv.lrd_halfwidths[0]
