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
    mean = np.add.reduce(arr) / arr.size
    if mean <= 0:
        raise ValueError("bandwidth series must have a positive mean")
    std = float(np.sqrt(_squared_deviation_sum(arr, mean) / arr.size))
    mean = float(mean)
    maximum = float(np.max(arr))
    return TraceSummary(
        time_unit_ms=time_unit_ms,
        n_observations=int(arr.size),
        mean=mean,
        std=std,
        coefficient_of_variation=std / mean,
        maximum=maximum,
        minimum=float(np.min(arr)),
        peak_to_mean=maximum / mean,
    )


_PAIRWISE_LEAF = 65_536
"""Largest run of :func:`_squared_deviation_sum` summed in one call."""


def _squared_deviation_sum(arr, mean):
    """``np.add.reduce(np.square(arr - mean))`` without the whole temporary.

    numpy's pairwise sum of ``n > 128`` values adds the sums of its
    first ``n2`` and last ``n - n2`` values, ``n2`` being ``n // 2``
    rounded down to a multiple of 8.  Splitting the same way down to
    runs of at most :data:`_PAIRWISE_LEAF` values and reducing each run
    with numpy therefore adds the same numbers in the same order: the
    result equals ``np.std``'s sum bit for bit, while only one run's
    deviations exist at a time.
    """
    n = arr.size
    if n <= _PAIRWISE_LEAF:
        return np.add.reduce(np.square(arr - mean))
    half = n // 2
    half -= half % 8
    return _squared_deviation_sum(arr[:half], mean) + _squared_deviation_sum(arr[half:], mean)
