"""Index of dispersion for counts (IDC): another face of LRD.

The IDC at time scale ``m`` is the variance of the traffic arriving in
``m`` consecutive slots normalized by its mean:

    ``IDC(m) = Var(X_1 + ... + X_m) / E[X_1 + ... + X_m]``.

For Poisson-like (SRD) traffic the IDC converges to a constant; for
long-range dependent traffic it grows without bound like ``m^(2H-1)``
-- the characterization used throughout the self-similar traffic
literature the paper belongs to (e.g. Leland et al. 1993).  The IDC
slope therefore provides one more Hurst estimator, cross-checking the
variance-time, R/S and Whittle estimates of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_1d_float_array
from repro.analysis.correlation import aggregate

__all__ = ["IDCResult", "index_of_dispersion"]


@dataclass(frozen=True)
class IDCResult:
    """Outcome of an IDC analysis."""

    hurst: float
    """Estimated Hurst parameter from the IDC slope ``(slope+1)/2``."""

    slope: float
    """Fitted log-log growth rate of IDC(m) (0 for SRD, 2H-1 for LRD)."""

    m_values: np.ndarray = field(repr=False)
    """Time scales at which the IDC was evaluated."""

    idc: np.ndarray = field(repr=False)
    """IDC(m) at each scale."""

    fit_mask: np.ndarray = field(repr=False)
    """Points used in the slope regression."""


def index_of_dispersion(data, m_values=None, n_points=30):
    """Compute IDC(m) over a range of scales and fit its growth rate.

    Parameters mirror :func:`repro.analysis.hurst.variance_time`; the
    fit range runs from m = 10, so short-range structure does not bias
    the asymptotic slope, to ``max(n // 100, 20)``.
    """
    arr = as_1d_float_array(data, "data", min_length=100)
    if np.any(arr < 0):
        raise ValueError("IDC is defined for non-negative (count/byte) data")
    mean = float(np.mean(arr))
    if mean <= 0:
        raise ValueError("series must have positive mean")
    n = arr.size
    if m_values is None:
        top = max(n // 10, 2)
        m_values = np.unique(np.round(np.geomspace(1, top, n_points)).astype(int))
    m_values = np.asarray(m_values, dtype=int)
    if np.any(m_values < 1):
        raise ValueError("all time scales must be >= 1")
    idc = np.empty(m_values.size)
    for i, m in enumerate(m_values):
        block_sums = aggregate(arr, int(m)) * m
        idc[i] = float(np.var(block_sums)) / (mean * m)
    lo, hi = fit_range = (10, max(n // 100, 20))
    mask = (m_values >= lo) & (m_values <= hi) & (idc > 0)
    if mask.sum() < 2:
        raise ValueError(f"fewer than 2 usable scales in fit range {fit_range}")
    slope, _ = np.polyfit(np.log10(m_values[mask]), np.log10(idc[mask]), 1)
    slope = float(slope)
    return IDCResult(
        hurst=(slope + 1.0) / 2.0,
        slope=slope,
        m_values=m_values,
        idc=idc,
        fit_mask=mask,
    )
