"""Tests for the VBRTrace container and trace file I/O."""

import numpy as np
import pytest

from repro.video.trace import VBRTrace
from repro.video.tracefile import load_trace, save_trace


@pytest.fixture
def trace():
    rng = np.random.default_rng(0)
    frames = rng.integers(1000, 5000, size=60).astype(float)
    return VBRTrace(frames, frame_rate=24.0, slices_per_frame=4)


@pytest.fixture
def trace_with_slices():
    rng = np.random.default_rng(1)
    slices = rng.integers(100, 500, size=60 * 4).astype(float)
    frames = slices.reshape(60, 4).sum(axis=1)
    return VBRTrace(frames, frame_rate=24.0, slices_per_frame=4, slice_bytes=slices)


class TestConstruction:
    def test_basic_properties(self, trace):
        assert trace.n_frames == 60
        assert len(trace) == 60
        assert trace.duration_seconds == pytest.approx(2.5)
        assert trace.frame_interval_ms == pytest.approx(41.667, abs=0.001)
        assert trace.slice_interval_ms == pytest.approx(41.667 / 4, abs=0.001)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            VBRTrace([-1.0, 2.0])

    def test_rejects_mismatched_slices(self):
        with pytest.raises(ValueError):
            VBRTrace([100.0, 200.0], slices_per_frame=2, slice_bytes=[50.0, 50.0, 100.0])

    def test_rejects_inconsistent_slice_sums(self):
        with pytest.raises(ValueError):
            VBRTrace(
                [100.0, 200.0],
                slices_per_frame=2,
                slice_bytes=[10.0, 10.0, 100.0, 100.0],
            )

    def test_synthesized_slices_when_absent(self, trace):
        assert not trace.has_slice_data
        s = trace.slice_bytes
        assert s.size == 240
        np.testing.assert_allclose(
            s.reshape(60, 4).sum(axis=1), trace.frame_bytes, rtol=1e-12
        )

    def test_genuine_slices_preserved(self, trace_with_slices):
        assert trace_with_slices.has_slice_data


class TestViews:
    def test_series_units(self, trace_with_slices):
        assert trace_with_slices.series("frame").size == 60
        assert trace_with_slices.series("slice").size == 240
        with pytest.raises(ValueError):
            trace_with_slices.series("hour")

    def test_rates(self, trace):
        expected = trace.frame_bytes.mean() * 8 * 24
        assert trace.mean_rate_bps == pytest.approx(expected)

    def test_summary_matches_series(self, trace):
        s = trace.summary("frame")
        assert s.mean == pytest.approx(trace.frame_bytes.mean())

    def test_segment(self, trace_with_slices):
        seg = trace_with_slices.segment(10, 20)
        assert seg.n_frames == 10
        np.testing.assert_array_equal(seg.frame_bytes, trace_with_slices.frame_bytes[10:20])
        assert seg.has_slice_data

    def test_segment_bounds(self, trace):
        with pytest.raises(ValueError):
            trace.segment(-1, 10)
        with pytest.raises(ValueError):
            trace.segment(50, 40)
        with pytest.raises(ValueError):
            trace.segment(0, 61)

class TestTraceFile:
    def test_frame_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.dat"
        save_trace(trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.frame_bytes, np.round(trace.frame_bytes))
        assert loaded.frame_rate == trace.frame_rate
        assert loaded.slices_per_frame == trace.slices_per_frame

    def test_slice_roundtrip(self, trace_with_slices, tmp_path):
        path = tmp_path / "slices.dat"
        save_trace(trace_with_slices, path, unit="slice")
        loaded = load_trace(path)
        assert loaded.has_slice_data
        np.testing.assert_allclose(loaded.frame_bytes, trace_with_slices.frame_bytes)

    def test_headerless_file_defaults(self, tmp_path):
        """The original Bellcore file has no header: 24 fps assumed."""
        path = tmp_path / "raw.dat"
        path.write_text("1000\n2000\n1500\n")
        loaded = load_trace(path)
        assert loaded.frame_rate == 24.0
        assert loaded.n_frames == 3

    def test_explicit_overrides(self, tmp_path):
        path = tmp_path / "raw.dat"
        path.write_text("10\n20\n30\n40\n")
        loaded = load_trace(path, frame_rate=30.0, slices_per_frame=2, unit="slice")
        assert loaded.n_frames == 2
        np.testing.assert_array_equal(loaded.frame_bytes, [30.0, 70.0])

    def test_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("100\noops\n")
        with pytest.raises(ValueError, match="bad.dat:2"):
            load_trace(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.dat")

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("# frame_rate 24\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_nonmultiple_slice_count(self, tmp_path):
        path = tmp_path / "odd.dat"
        path.write_text("10\n20\n30\n")
        with pytest.raises(ValueError):
            load_trace(path, slices_per_frame=2, unit="slice")

    def test_save_requires_real_slices(self, trace, tmp_path):
        with pytest.raises(ValueError):
            save_trace(trace, tmp_path / "x.dat", unit="slice")

    def test_save_rejects_non_trace(self, tmp_path):
        with pytest.raises(TypeError):
            save_trace([1, 2, 3], tmp_path / "x.dat")
