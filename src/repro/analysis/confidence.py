"""Confidence intervals for the mean under LRD (Fig. 9 of the paper).

The conventional 95% CI, ``xbar +- 1.96 s / sqrt(n)``, assumes i.i.d.
(or at least short-range dependent) errors.  For a long-range
dependent process the variance of the sample mean decays like
``sigma^2 n^{2H-2}`` instead of ``sigma^2 / n`` (for fractional
Gaussian noise this is *exact*), so the honest interval is wider:

    ``xbar +- 1.96 s n^{H-1}``.

Fig. 9 shows the consequence: for the VBR trace, the i.i.d.-based CIs
shrink so fast that the final mean is not even contained in most of
them, while the LRD-aware CIs converge slowly but honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_1d_float_array, require_in_open_interval

__all__ = ["MeanConvergence", "lrd_mean_ci", "mean_confidence_convergence"]


def lrd_mean_ci(data, hurst):
    """LRD-aware 95% confidence interval for the mean of ``data``.

    Returns ``(mean, halfwidth)`` with
    ``halfwidth = z * s * n^(H-1)``; for ``hurst=0.5`` this reduces to
    the classical i.i.d. interval ``z * s / sqrt(n)``.
    """
    arr = as_1d_float_array(data, "data", min_length=2)
    hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    from scipy import special

    z = np.sqrt(2.0) * special.erfinv(0.95)
    s = float(np.std(arr, ddof=1))
    n = arr.size
    return float(np.mean(arr)), float(z * s * n ** (hurst - 1.0))


@dataclass(frozen=True)
class MeanConvergence:
    """Mean estimates from growing prefixes, with both CI families."""

    sample_sizes: np.ndarray = field(repr=False)
    """Prefix lengths ``n`` at which the mean was estimated."""

    means: np.ndarray = field(repr=False)
    """``mean(X_1 .. X_n)`` for each prefix."""

    iid_halfwidths: np.ndarray = field(repr=False)
    """Conventional 95% CI half-widths, ``1.96 s / sqrt(n)``."""

    lrd_halfwidths: np.ndarray = field(repr=False)
    """LRD-corrected half-widths, ``1.96 s n^(H-1)``."""

    final_mean: float
    """The mean over the entire series."""

    hurst: float
    """Hurst parameter used for the LRD correction."""

    def iid_coverage(self):
        """Fraction of prefix CIs (i.i.d. flavor) containing the final mean."""
        inside = np.abs(self.means - self.final_mean) <= self.iid_halfwidths
        return float(np.mean(inside))

    def lrd_coverage(self):
        """Fraction of prefix CIs (LRD flavor) containing the final mean."""
        inside = np.abs(self.means - self.final_mean) <= self.lrd_halfwidths
        return float(np.mean(inside))


def mean_confidence_convergence(data, hurst, sample_sizes=None):
    """Reproduce Fig. 9: mean of the first ``n`` observations with 95% CIs.

    Parameters
    ----------
    data:
        The full series.
    hurst:
        Hurst parameter for the LRD-corrected intervals.
    sample_sizes:
        Prefix lengths; default is 12 log-spaced sizes from 100 to the
        full length.
    """
    arr = as_1d_float_array(data, "data", min_length=200)
    hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    n = arr.size
    if sample_sizes is None:
        sample_sizes = np.unique(
            np.round(np.logspace(np.log10(100), np.log10(n), 12)).astype(int)
        )
    sizes = np.asarray(sample_sizes, dtype=int)
    if np.any(sizes < 2) or np.any(sizes > n):
        raise ValueError(f"sample sizes must lie in [2, {n}]")
    from scipy import special

    z = np.sqrt(2.0) * special.erfinv(0.95)
    means = np.empty(sizes.size)
    iid_hw = np.empty(sizes.size)
    lrd_hw = np.empty(sizes.size)
    for i, size in enumerate(sizes):
        prefix = arr[:size]
        s = float(np.std(prefix, ddof=1))
        means[i] = float(np.mean(prefix))
        iid_hw[i] = z * s / np.sqrt(size)
        lrd_hw[i] = z * s * size ** (hurst - 1.0)
    return MeanConvergence(
        sample_sizes=sizes,
        means=means,
        iid_halfwidths=iid_hw,
        lrd_halfwidths=lrd_hw,
        final_mean=float(np.mean(arr)),
        hurst=hurst,
    )
