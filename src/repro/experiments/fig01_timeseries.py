"""Fig. 1: time series of the entire two-hour VBR video sequence.

The figure's visible features -- three extreme peaks near the center
(the hyperspace jumps and planet explosion), the wide opening-text and
Death-Star peaks, and story-arc-scale amplitude modulation -- are all
present in the reference trace by construction; ``run`` returns a
plot-ready downsampled envelope plus the locations of the detected
extreme peaks.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.correlation import aggregate
from repro.experiments.data import reference_trace

__all__ = ["run"]


def run(trace=None):
    """Downsampled time series with per-bin mean/min/max envelopes.

    Returns a dict with ``"time_minutes"``, ``"mean"``, ``"low"``,
    ``"high"`` (per-bin envelopes in bytes/frame) and
    ``"peak_minutes"`` / ``"peak_values"`` -- the five largest local
    maxima, which for the reference trace line up with the scripted
    landmark events.
    """
    if trace is None:
        trace = reference_trace()
    x = trace.frame_bytes
    n = x.size
    block = max(n // 2000, 1)
    n_blocks = n // block
    trimmed = x[: n_blocks * block].reshape(n_blocks, block)
    centers_frames = (np.arange(n_blocks) + 0.5) * block
    time_minutes = centers_frames / trace.frame_rate / 60.0
    mean = trimmed.mean(axis=1)
    # Locate the extreme peaks on a ~2 second grid: fine enough that a
    # short effects burst (a few dozen frames) registers, coarse
    # enough that the frames of one event count once.  Peaks must be
    # at least ~20 seconds apart.
    coarse_block = min(max(int(2.0 * trace.frame_rate), 1), max(n // 10, 1))
    coarse = aggregate(x, coarse_block)
    order = np.argsort(coarse)[::-1]
    peak_positions = []
    for idx in order:
        if len(peak_positions) >= 5:
            break
        if all(abs(idx - p) > 10 for p in peak_positions):
            peak_positions.append(int(idx))
    peak_frames = (np.asarray(peak_positions) + 0.5) * coarse_block
    return {
        "time_minutes": time_minutes,
        "mean": mean,
        "low": trimmed.min(axis=1),
        "high": trimmed.max(axis=1),
        "peak_minutes": peak_frames / trace.frame_rate / 60.0,
        "peak_values": coarse[peak_positions] if peak_positions else np.array([]),
        "duration_minutes": trace.duration_seconds / 60.0,
    }
