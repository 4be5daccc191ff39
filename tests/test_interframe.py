"""Tests for the interframe (MPEG-style) trace synthesis."""

import numpy as np
import pytest

from repro.video.interframe import GOP_PATTERN, synthesize_mpeg_trace


class TestMPEGTraceSynthesis:
    @pytest.fixture(scope="class")
    def mpeg(self):
        return synthesize_mpeg_trace(n_frames=24_000, seed=4)

    def test_gop_periodicity_in_spectrum(self, mpeg):
        """The I/P/B pattern puts spectral lines at the GOP frequency
        and its harmonics -- the signature of MPEG VBR traces."""
        from repro.analysis.correlation import periodogram

        omega, intensity = periodogram(mpeg.frame_bytes)
        gop = len(GOP_PATTERN)
        # Fundamental GOP frequency: omega = 2 pi / gop.
        j_gop = mpeg.n_frames // gop
        peak = intensity[j_gop - 2 : j_gop + 1].max()
        background = np.median(intensity[j_gop // 2 : j_gop * 2])
        assert peak > 30 * background

    def test_burstier_than_intraframe(self, mpeg):
        from repro.experiments.data import reference_trace

        intra = reference_trace(n_frames=24_000, seed=4, with_slices=False)
        cov_mpeg = mpeg.frame_bytes.std() / mpeg.frame_bytes.mean()
        cov_intra = intra.frame_bytes.std() / intra.frame_bytes.mean()
        assert cov_mpeg > 1.5 * cov_intra

    def test_lrd_survives_gop_aggregation(self, mpeg):
        """Aggregating over whole GOPs removes the deterministic
        pattern and exposes the underlying H ~= 0.8."""
        from repro.analysis.correlation import aggregate
        from repro.analysis.hurst import variance_time

        per_gop = aggregate(mpeg.frame_bytes, len(GOP_PATTERN))
        est = variance_time(per_gop)
        assert 0.7 < est.hurst < 0.95

    def test_mean_calibration(self, mpeg):
        """Default mean: intraframe mean / 3 (interframe compression)."""
        assert np.mean(mpeg.frame_bytes) == pytest.approx(27_791.0 / 3.0, rel=0.02)

    def test_i_frames_largest_on_average(self, mpeg):
        gop = len(GOP_PATTERN)
        x = mpeg.frame_bytes[: (mpeg.n_frames // gop) * gop].reshape(-1, gop)
        by_position = x.mean(axis=0)
        assert by_position[0] == by_position.max()  # the I frame

