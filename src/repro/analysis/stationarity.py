"""Stationarity versus long-range dependence (Section 3.2.2).

The paper argues that VBR video's apparent non-stationarity is better
modeled as *stationary long-range dependence*: "non-stationarity may
mean that one has simply not yet found a satisfactory description of
the process ... Long-range dependent processes provide a convenient
theory within the framework of stationarity that accounts for the
observed low-frequency modulation of the statistics."

This module turns that argument into a test.  For a stationary process
with Hurst parameter H, the means of length-``m`` segments have
standard deviation ``~ sigma * m^(H-1)``.  Comparing the *observed*
dispersion of segment means against the i.i.d. prediction
(``sigma / sqrt(m)``) and the LRD prediction (``sigma * m^(H-1)``)
shows which stationary model explains the data:

- i.i.d./SRD: observed dispersion far exceeds the prediction (the
  "non-stationarity illusion" of Fig. 3);
- stationary LRD: observed dispersion matches the prediction, so no
  trend-removal or non-stationary modeling is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_1d_float_array, require_in_open_interval, require_positive_int

__all__ = ["StationarityReport", "segment_mean_dispersion", "lrd_stationarity_check"]


@dataclass(frozen=True)
class StationarityReport:
    """Dispersion of segment means versus stationary predictions."""

    segment_length: int
    """Length ``m`` of each (non-overlapping) segment."""

    n_segments: int
    """Number of segments analysed."""

    observed_dispersion: float
    """Sample standard deviation of the segment means."""

    iid_prediction: float
    """``sigma / sqrt(m)``: the i.i.d./SRD stationary prediction."""

    lrd_prediction: float
    """``sigma * m^(H-1)``: the stationary-LRD prediction."""

    hurst: float
    """Hurst parameter used for the LRD prediction."""

    @property
    def iid_ratio(self):
        """Observed over i.i.d.-predicted dispersion (>> 1 for LRD data)."""
        return self.observed_dispersion / self.iid_prediction

    @property
    def lrd_ratio(self):
        """Observed over LRD-predicted dispersion (~ 1 if LRD explains it)."""
        return self.observed_dispersion / self.lrd_prediction

    @property
    def lrd_explains_dispersion(self):
        """Whether stationary LRD accounts for the wandering means.

        True when the LRD ratio is within a factor ~2 of unity while
        the i.i.d. ratio is far above it -- the paper's qualitative
        criterion made explicit.
        """
        return 0.4 < self.lrd_ratio < 2.5 and self.iid_ratio > 2.0 * self.lrd_ratio


def segment_mean_dispersion(data, segment_length):
    """Sample standard deviation of non-overlapping segment means."""
    arr = as_1d_float_array(data, "data", min_length=4)
    segment_length = require_positive_int(segment_length, "segment_length")
    n_segments = arr.size // segment_length
    if n_segments < 2:
        raise ValueError(
            f"need at least 2 segments; {arr.size} points give {n_segments} "
            f"of length {segment_length}"
        )
    means = arr[: n_segments * segment_length].reshape(n_segments, segment_length).mean(axis=1)
    return float(np.std(means, ddof=1)), int(n_segments)


def lrd_stationarity_check(data, hurst, segment_length=None):
    """Does stationary LRD explain the wandering of segment means?

    Parameters
    ----------
    data:
        The series.
    hurst:
        Hurst parameter (e.g. from
        :func:`repro.analysis.hurst.variance_time`).
    segment_length:
        Segment size ``m``; defaults to ``len(data) // 20``.

    Returns a :class:`StationarityReport`.
    """
    arr = as_1d_float_array(data, "data", min_length=100)
    hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    if segment_length is None:
        segment_length = max(arr.size // 20, 2)
    observed, n_segments = segment_mean_dispersion(arr, segment_length)
    sigma = float(np.std(arr, ddof=0))
    return StationarityReport(
        segment_length=int(segment_length),
        n_segments=n_segments,
        observed_dispersion=observed,
        iid_prediction=sigma / np.sqrt(segment_length),
        lrd_prediction=sigma * segment_length ** (hurst - 1.0),
        hurst=hurst,
    )
