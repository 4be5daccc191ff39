"""Tests for the stationarity check, and for Paxson's spectral fGn
synthesis agreeing with the two exact generators on H."""

import pytest

from repro.analysis.hurst import variance_time
from repro.analysis.stationarity import (
    lrd_stationarity_check,
    segment_mean_dispersion,
)
from repro.core.paxson import PaxsonGenerator


class TestSpectralGenerator:
    """Paxson's spectral (FFT) synthesis against the two exact generators."""

    def test_three_generators_agree(self, rng):
        """Hosking, Davies-Harte and Paxson's spectral synthesis recover
        the same variance-time H."""
        from repro.core.daviesharte import DaviesHarteGenerator
        from repro.core.hosking import HoskingGenerator

        n = 4096
        estimates = [
            variance_time(HoskingGenerator(hurst=0.8).generate(n, rng=rng)).hurst,
            variance_time(DaviesHarteGenerator(0.8).generate(n, rng=rng)).hurst,
            variance_time(PaxsonGenerator(0.8).generate(n, rng=rng)).hurst,
        ]
        assert max(estimates) - min(estimates) < 0.15


class TestStationarityCheck:
    def test_segment_dispersion_basic(self, rng):
        x = rng.standard_normal(10_000)
        disp, n_seg = segment_mean_dispersion(x, 100)
        assert n_seg == 100
        assert disp == pytest.approx(0.1, rel=0.25)  # sigma/sqrt(100)

    def test_rejects_too_few_segments(self, rng):
        with pytest.raises(ValueError):
            segment_mean_dispersion(rng.standard_normal(100), 80)

    def test_iid_data_consistent_with_iid(self, rng):
        x = rng.standard_normal(50_000)
        report = lrd_stationarity_check(x, hurst=0.5, segment_length=1000)
        assert report.iid_ratio == pytest.approx(1.0, abs=0.4)
        assert not report.lrd_explains_dispersion  # no LRD needed

    def test_lrd_data_explained_by_lrd(self, fgn_path):
        """The paper's Section 3.2.2 claim on actual FGN: segment
        means wander far beyond i.i.d. but exactly as stationary LRD
        predicts."""
        report = lrd_stationarity_check(fgn_path, hurst=0.8, segment_length=1024)
        assert report.iid_ratio > 2.5
        assert report.lrd_ratio == pytest.approx(1.0, abs=0.5)
        assert report.lrd_explains_dispersion

    def test_reference_trace_explained(self, small_trace):
        from repro.analysis.hurst import variance_time

        x = small_trace.frame_bytes
        h = variance_time(x).hurst
        report = lrd_stationarity_check(x, hurst=min(h, 0.95))
        assert report.iid_ratio > 3.0
        assert 0.3 < report.lrd_ratio < 3.0

    def test_report_fields(self, rng):
        x = rng.standard_normal(5_000)
        report = lrd_stationarity_check(x, 0.7, segment_length=250)
        assert report.segment_length == 250
        assert report.n_segments == 20
        assert report.lrd_prediction > report.iid_prediction
