"""The VBR trace container.

A :class:`VBRTrace` holds the bandwidth process of one coded video
sequence at both resolutions the paper analyses: bytes per *frame*
(41.67 ms at 24 fps) and bytes per *slice* (1.389 ms at 30 slices per
frame).  Slice data is optional; when absent it is synthesized by an
even split, which is adequate for frame-level experiments.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_1d_float_array, require_positive, require_positive_int

__all__ = ["VBRTrace"]


class VBRTrace:
    """Bandwidth trace of a VBR-coded video sequence.

    Parameters
    ----------
    frame_bytes:
        Bytes generated for each video frame (1-D, non-negative).
    frame_rate:
        Frames per second (the paper's movie runs at 24).
    slices_per_frame:
        Number of slices each frame is divided into (paper: 30).
    slice_bytes:
        Optional per-slice byte counts of length
        ``len(frame_bytes) * slices_per_frame``.  When provided, each
        frame's slices must sum to that frame's byte count (within
        rounding tolerance of 1 byte per slice).
    """

    def __init__(self, frame_bytes, frame_rate=24.0, slices_per_frame=30, slice_bytes=None):
        self.frame_bytes = as_1d_float_array(frame_bytes, "frame_bytes")
        if np.any(self.frame_bytes < 0):
            raise ValueError("frame_bytes must be non-negative")
        self.frame_rate = require_positive(frame_rate, "frame_rate")
        self.slices_per_frame = require_positive_int(slices_per_frame, "slices_per_frame")
        if slice_bytes is not None:
            slice_bytes = as_1d_float_array(slice_bytes, "slice_bytes")
            expected = self.frame_bytes.size * self.slices_per_frame
            if slice_bytes.size != expected:
                raise ValueError(
                    f"slice_bytes must have length n_frames * slices_per_frame = {expected}, "
                    f"got {slice_bytes.size}"
                )
            if np.any(slice_bytes < 0):
                raise ValueError("slice_bytes must be non-negative")
            sums = slice_bytes.reshape(-1, self.slices_per_frame).sum(axis=1)
            if np.max(np.abs(sums - self.frame_bytes)) > self.slices_per_frame:
                raise ValueError("slice_bytes do not sum to frame_bytes within tolerance")
        self._slice_bytes = slice_bytes

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_frames(self):
        """Number of frames in the trace."""
        return int(self.frame_bytes.size)

    @property
    def frame_interval_ms(self):
        """Duration of one frame slot in milliseconds."""
        return 1000.0 / self.frame_rate

    @property
    def slice_interval_ms(self):
        """Duration of one slice slot in milliseconds."""
        return self.frame_interval_ms / self.slices_per_frame

    @property
    def duration_seconds(self):
        """Total duration of the sequence in seconds."""
        return self.n_frames / self.frame_rate

    @property
    def slice_bytes(self):
        """Per-slice byte counts (synthesized by even split if absent)."""
        if self._slice_bytes is not None:
            return self._slice_bytes
        return np.repeat(self.frame_bytes / self.slices_per_frame, self.slices_per_frame)

    @property
    def has_slice_data(self):
        """Whether genuine (non-synthesized) slice data is present."""
        return self._slice_bytes is not None

    def series(self, unit="frame"):
        """The bandwidth series at ``"frame"`` or ``"slice"`` resolution."""
        if unit == "frame":
            return self.frame_bytes
        if unit == "slice":
            return self.slice_bytes
        raise ValueError(f'unit must be "frame" or "slice", got {unit!r}')

    def time_unit_ms(self, unit="frame"):
        """Slot duration in milliseconds for the requested resolution."""
        if unit == "frame":
            return self.frame_interval_ms
        if unit == "slice":
            return self.slice_interval_ms
        raise ValueError(f'unit must be "frame" or "slice", got {unit!r}')

    # ------------------------------------------------------------------
    # Derived statistics and views
    # ------------------------------------------------------------------
    @property
    def mean_rate_bps(self):
        """Long-run mean bandwidth in bits per second."""
        return float(np.mean(self.frame_bytes)) * 8.0 * self.frame_rate

    def summary(self, unit="frame"):
        """A :class:`~repro.analysis.summary.TraceSummary` (Table 2)."""
        from repro.analysis.summary import summarize

        return summarize(self.series(unit), self.time_unit_ms(unit))

    def segment(self, start_frame, end_frame):
        """Sub-trace covering frames ``[start_frame, end_frame)``."""
        n = self.n_frames
        start_frame, end_frame = int(start_frame), int(end_frame)
        if not 0 <= start_frame < end_frame <= n:
            raise ValueError(f"invalid segment [{start_frame}, {end_frame}) for {n} frames")
        s = None
        if self._slice_bytes is not None:
            spf = self.slices_per_frame
            s = self._slice_bytes[start_frame * spf : end_frame * spf]
        return VBRTrace(
            self.frame_bytes[start_frame:end_frame],
            frame_rate=self.frame_rate,
            slices_per_frame=self.slices_per_frame,
            slice_bytes=s,
        )

    def __len__(self):
        return self.n_frames

    def __repr__(self):
        return (
            f"VBRTrace(n_frames={self.n_frames}, frame_rate={self.frame_rate:g}, "
            f"slices_per_frame={self.slices_per_frame}, "
            f"mean_rate={self.mean_rate_bps / 1e6:.2f} Mb/s, "
            f"slice_data={self.has_slice_data})"
        )
