"""Summary statistics of a bandwidth series (Table 2 of the paper).

For the Star-Wars trace the paper reports, at frame (41.67 ms) and
slice (1.389 ms) resolution: mean, standard deviation, coefficient of
variation, maximum, minimum, and the peak-to-mean "burstiness" ratio,
which bounds the statistical multiplexing gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_1d_float_array, require_positive

__all__ = ["TraceSummary", "summarize"]


@dataclass(frozen=True)
class TraceSummary:
    """Distributional summary of one time series (one Table 2 column)."""

    time_unit_ms: float
    """Duration of one observation slot in milliseconds."""

    n_observations: int
    """Number of observations in the series."""

    mean: float
    """Mean bandwidth in bytes per slot (the paper's ``mu``)."""

    std: float
    """Standard deviation in bytes per slot (the paper's ``sigma``)."""

    coefficient_of_variation: float
    """``sigma / mu`` -- dimensionless spread."""

    maximum: float
    """Largest observed bandwidth per slot."""

    minimum: float
    """Smallest observed bandwidth per slot."""

    peak_to_mean: float
    """Burstiness: peak over mean; bounds the multiplexing gain."""

    @property
    def mean_rate_bps(self):
        """Mean bandwidth expressed in bits per second."""
        return self.mean * 8.0 / (self.time_unit_ms / 1000.0)

    def format_rows(self):
        """Human-readable ``(label, value)`` rows mirroring Table 2."""
        return [
            ("Time unit (msec)", f"{self.time_unit_ms:.4g}"),
            ("Mean bandwidth (bytes/slot)", f"{self.mean:.1f}"),
            ("Standard deviation (bytes/slot)", f"{self.std:.1f}"),
            ("Coef. of variation", f"{self.coefficient_of_variation:.2f}"),
            ("Maximum bandwidth (bytes/slot)", f"{self.maximum:.0f}"),
            ("Minimum bandwidth (bytes/slot)", f"{self.minimum:.0f}"),
            ("Peak/mean bandwidth", f"{self.peak_to_mean:.2f}"),
            ("Mean rate (Mb/s)", f"{self.mean_rate_bps / 1e6:.2f}"),
        ]


def summarize(data, time_unit_ms):
    """Compute a :class:`TraceSummary` for a bandwidth series.

    Parameters
    ----------
    data:
        Bytes per slot, one entry per time slot.
    time_unit_ms:
        Slot duration in milliseconds (41.67 for 24 fps frames, 1.389
        for 30 slices per frame).
    """
    arr = as_1d_float_array(data, "data")
    time_unit_ms = require_positive(time_unit_ms, "time_unit_ms")
    mean = float(np.mean(arr))
    if mean <= 0:
        raise ValueError("bandwidth series must have a positive mean")
    std = float(np.std(arr, ddof=0))
    return TraceSummary(
        time_unit_ms=time_unit_ms,
        n_observations=int(arr.size),
        mean=mean,
        std=std,
        coefficient_of_variation=std / mean,
        maximum=float(np.max(arr)),
        minimum=float(np.min(arr)),
        peak_to_mean=float(np.max(arr)) / mean,
    )
