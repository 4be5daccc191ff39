"""Hurst-parameter estimation (Section 3.2.3 and Table 3 of the paper).

Three families of estimators are implemented:

- **Variance-time plot** (Fig. 11): the variance of the block-mean
  series ``X^(m)`` decays like ``m^-beta`` with ``beta = 2 - 2H``;
  regressing ``log Var(X^(m))`` on ``log m`` yields ``H = 1 - beta/2``.
- **R/S analysis** (Fig. 12): the rescaled adjusted range statistic
  ``R(n)/S(n)`` grows like ``n^H``; the pox diagram evaluates it at
  many lags and partition start points and regresses on log-log axes.
  Variants on aggregated series and with varied lag/partition densities
  reproduce the robustness checks in Table 3.
- **Whittle's approximate MLE**: minimizes the frequency-domain
  likelihood built from the periodogram and the fARIMA(0, d, 0)
  spectral density ``f(w; d) ~ |2 sin(w/2)|^{-2d}``; asymptotic theory
  yields a standard error and hence the confidence interval the paper
  quotes (``H = 0.8 +- 0.088``).  Following the paper, the series can
  first be transformed to (near-)Normal marginals and aggregated to
  filter out high-frequency (short-range) effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._brent import bounded_minimize
from repro._validation import as_1d_float_array, require_positive_int
from repro.analysis.correlation import aggregate, periodogram

__all__ = [
    "VarianceTimeResult",
    "RSResult",
    "WhittleResult",
    "GPHResult",
    "variance_time",
    "rs_statistic",
    "rs_pox",
    "rs_aggregated",
    "rs_sensitivity",
    "whittle",
    "gph",
    "default_whittle_m",
    "hurst_summary",
]


def _log_spaced_ints(low, high, n_points):
    """Distinct integers approximately log-uniform on [low, high]."""
    if high < low:
        raise ValueError(f"empty integer range [{low}, {high}]")
    values = np.unique(
        np.round(np.logspace(np.log10(low), np.log10(high), n_points)).astype(int)
    )
    return values[(values >= low) & (values <= high)]


# ----------------------------------------------------------------------
# Variance-time plot
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VarianceTimeResult:
    """Outcome of a variance-time analysis (Fig. 11)."""

    hurst: float
    """Estimated Hurst parameter ``H = 1 - beta / 2``."""

    beta: float
    """Fitted decay exponent of ``Var(X^(m)) / Var(X) ~ m^-beta``."""

    m_values: np.ndarray = field(repr=False)
    """Block sizes at which the aggregated variance was evaluated."""

    normalized_variances: np.ndarray = field(repr=False)
    """``Var(X^(m)) / Var(X)`` for each block size."""

    fit_mask: np.ndarray = field(repr=False)
    """Boolean mask of the points used in the log-log regression."""


def variance_time(data, m_values=None, fit_range=None, n_points=40, min_blocks=5):
    """Estimate H from the variance of aggregated series (eq. 1).

    Parameters
    ----------
    data:
        The bandwidth series.
    m_values:
        Block sizes; default is ~``n_points`` log-spaced sizes from 1
        to ``len(data) / min_blocks``.
    fit_range:
        ``(m_lo, m_hi)`` range used for the slope regression.  The
        paper measures the slope away from the smallest blocks (where
        short-range structure dominates); the default fits m in
        ``[10, len(data) / 100]``.
    min_blocks:
        Smallest number of blocks for which a variance is trusted.
    """
    arr = as_1d_float_array(data, "data", min_length=100)
    n = arr.size
    var0 = float(np.var(arr))
    if var0 <= 0:
        raise ValueError("series is constant; variance-time analysis is undefined")
    if m_values is None:
        m_values = _log_spaced_ints(1, max(n // min_blocks, 2), n_points)
    m_values = np.asarray(m_values, dtype=int)
    if np.any(m_values < 1):
        raise ValueError("all block sizes must be >= 1")
    variances = np.array([float(np.var(aggregate(arr, int(m)))) for m in m_values])
    normalized = variances / var0
    if fit_range is None:
        fit_range = (10, max(n // 100, 20))
    lo, hi = fit_range
    mask = (m_values >= lo) & (m_values <= hi) & (normalized > 0)
    if mask.sum() < 2:
        raise ValueError(f"fewer than 2 usable block sizes in fit range {fit_range}")
    slope, _ = np.polyfit(np.log10(m_values[mask]), np.log10(normalized[mask]), 1)
    beta = -float(slope)
    return VarianceTimeResult(
        hurst=1.0 - beta / 2.0,
        beta=beta,
        m_values=m_values,
        normalized_variances=normalized,
        fit_mask=mask,
    )


# ----------------------------------------------------------------------
# R/S analysis
# ----------------------------------------------------------------------
def rs_statistic(segment):
    """Rescaled adjusted range ``R(n)/S(n)`` of one segment.

    Implements Hurst's statistic exactly as defined in the paper:
    adjusted partial sums ``W_j = sum_{i<=j} X_i - j * mean``, range
    ``R = max(0, W_1..W_n) - min(0, W_1..W_n)``, normalized by the
    sample standard deviation ``S``.
    """
    seg = as_1d_float_array(segment, "segment", min_length=2)
    s = float(np.std(seg, ddof=0))
    if s <= 0:
        return float("nan")
    w = np.cumsum(seg - seg.mean())
    r = max(0.0, float(w.max())) - min(0.0, float(w.min()))
    return r / s


@dataclass(frozen=True)
class RSResult:
    """Outcome of an R/S pox-diagram analysis (Fig. 12)."""

    hurst: float
    """Slope of the least-squares line through the pox points."""

    lags: np.ndarray = field(repr=False)
    """Lag ``n`` of every pox point."""

    rs_values: np.ndarray = field(repr=False)
    """``R(n)/S(n)`` of every pox point."""

    fit_mask: np.ndarray = field(repr=False)
    """Points used in the regression (middle lag range)."""


def rs_pox(data, lags=None, n_partitions=10, n_lag_points=30, fit_range=None):
    """R/S pox diagram and Hurst estimate.

    For each lag ``n`` (log-spaced by default) the series is cut into
    ``n_partitions`` equally spaced starting points; every start that
    leaves a full segment of length ``n`` contributes one pox point
    ``R(n)/S(n)``.  ``H`` is the least-squares slope of
    ``log10 R/S`` against ``log10 n`` over the ``fit_range`` of lags
    (defaults to ``[10, len(data)/5]`` -- trimming the smallest lags,
    where short-range dependence distorts the statistic, and the very
    largest, where few segments exist).
    """
    arr = as_1d_float_array(data, "data", min_length=50)
    n = arr.size
    n_partitions = require_positive_int(n_partitions, "n_partitions")
    if lags is None:
        lags = _log_spaced_ints(8, max(n // 2, 9), n_lag_points)
    lags = np.asarray(lags, dtype=int)
    if np.any(lags < 2) or np.any(lags > n):
        raise ValueError(f"lags must lie in [2, {n}]")
    pox_lags = []
    pox_values = []
    for lag in lags:
        lag = int(lag)
        max_start = n - lag
        if max_start < 0:
            continue
        starts = np.unique(np.linspace(0, max_start, n_partitions).astype(int))
        for start in starts:
            value = rs_statistic(arr[start : start + lag])
            if np.isfinite(value) and value > 0:
                pox_lags.append(lag)
                pox_values.append(value)
    pox_lags = np.asarray(pox_lags, dtype=float)
    pox_values = np.asarray(pox_values, dtype=float)
    if pox_lags.size < 2:
        raise ValueError("not enough valid R/S points; series may be too short or constant")
    if fit_range is None:
        fit_range = (10, max(n // 5, 12))
    lo, hi = fit_range
    mask = (pox_lags >= lo) & (pox_lags <= hi)
    if mask.sum() < 2:
        raise ValueError(f"fewer than 2 pox points in fit range {fit_range}")
    slope, _ = np.polyfit(np.log10(pox_lags[mask]), np.log10(pox_values[mask]), 1)
    return RSResult(hurst=float(slope), lags=pox_lags, rs_values=pox_values, fit_mask=mask)


def rs_aggregated(data, m=10, **kwargs):
    """R/S analysis on the aggregated series ``X^(m)``.

    Aggregation filters out a particular short-range dependence
    structure that could distort the plain R/S slope; the paper reports
    this variant as a separate Table 3 row (H = 0.78).
    """
    m = require_positive_int(m, "m")
    return rs_pox(aggregate(as_1d_float_array(data, "data"), m), **kwargs)


def rs_sensitivity(data, partition_counts=(5, 10, 20), lag_point_counts=(15, 30, 60)):
    """Robustness sweep over pox-diagram densities (Table 3's last row).

    Re-runs :func:`rs_pox` for every combination of vertical density
    (``n_partitions``) and horizontal density (``n_lag_points``) and
    returns ``(h_min, h_max, estimates)`` where ``estimates`` maps the
    ``(n_partitions, n_lag_points)`` pair to its Hurst estimate.
    """
    estimates = {}
    for n_part in partition_counts:
        for n_lagpts in lag_point_counts:
            result = rs_pox(data, n_partitions=n_part, n_lag_points=n_lagpts)
            estimates[(int(n_part), int(n_lagpts))] = result.hurst
    values = list(estimates.values())
    return min(values), max(values), estimates


# ----------------------------------------------------------------------
# Whittle's approximate MLE
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WhittleResult:
    """Outcome of a Whittle estimation."""

    hurst: float
    """Point estimate ``H = d + 1/2``."""

    d: float
    """Fractional differencing parameter estimate."""

    std_error: float
    """Asymptotic standard error of ``d`` (and of ``H``)."""

    ci_low: float
    """Lower end of the 95% confidence interval for ``H``."""

    ci_high: float
    """Upper end of the 95% confidence interval for ``H``."""

    n_used: int
    """Length of the (possibly aggregated/transformed) series used."""


def _whittle_objective(d, log_g, intensity):
    """Scale-free Whittle likelihood for fARIMA(0, d, 0).

    With ``g(w; d) = |2 sin(w/2)|^{-2d}`` and the innovation variance
    profiled out, the objective is
    ``log(mean(I / g)) + mean(log g)``.
    """
    g_log = -2.0 * d * log_g
    ratio = intensity * np.exp(-g_log)
    return float(np.log(np.mean(ratio)) + np.mean(g_log))


def whittle(data, normalize="normal-scores"):
    """Whittle's approximate MLE of H for a fARIMA(0, d, 0) spectrum.

    Parameters
    ----------
    data:
        The (bandwidth) series.
    normalize:
        Marginal pre-transform: ``"normal-scores"`` (rank-based
        Gaussianization; plays the role of the paper's log transform,
        which "typically results in approximately Normal looking
        distributions and exhibits the same H-value"), ``"log"`` for
        the paper's literal choice, or ``None`` to use the raw series.

    Returns a :class:`WhittleResult` with the 95% CI derived from the
    asymptotic variance ``Var(d_hat) = 6 / (pi^2 n)`` of the
    one-parameter fARIMA Whittle estimator.
    """
    arr = as_1d_float_array(data, "data", min_length=32)
    if normalize == "normal-scores":
        from repro.core.transform import normal_scores

        arr = normal_scores(arr)
    elif normalize == "log":
        if np.any(arr <= 0):
            raise ValueError("log normalization requires strictly positive data")
        arr = np.log(arr)
    elif normalize is not None:
        raise ValueError(f'normalize must be "normal-scores", "log" or None, got {normalize!r}')
    omega, intensity = periodogram(arr)
    # Drop the Nyquist point if n is even and any zero intensities.
    usable = intensity > 0
    omega, intensity = omega[usable], intensity[usable]
    if omega.size < 8:
        raise ValueError("too few usable periodogram ordinates for Whittle estimation")
    log_g = np.log(2.0 * np.sin(omega / 2.0))
    result = bounded_minimize(_whittle_objective, -0.49, 0.49, args=(log_g, intensity), xatol=1e-6)
    d_hat = float(result.x)
    n = arr.size
    std_error = float(np.sqrt(6.0 / (np.pi**2 * n)))
    h = d_hat + 0.5
    return WhittleResult(
        hurst=h,
        d=d_hat,
        std_error=std_error,
        ci_low=h - 1.96 * std_error,
        ci_high=h + 1.96 * std_error,
        n_used=n,
    )


@dataclass(frozen=True)
class GPHResult:
    """Outcome of a log-periodogram (Geweke-Porter-Hudak) regression."""

    hurst: float
    """Point estimate ``H = d + 1/2``."""

    d: float
    """Fractional differencing estimate (minus half the log-log slope)."""

    std_error: float
    """Asymptotic standard error of ``d``."""

    n_frequencies: int
    """Number of low-frequency ordinates used in the regression."""


def gph(data, bandwidth_exponent=0.5, normalize="normal-scores"):
    """Geweke-Porter-Hudak log-periodogram estimator of H.

    Regresses ``log I(w_j)`` on ``log(4 sin^2(w_j / 2))`` over the
    ``m = n**bandwidth_exponent`` lowest Fourier frequencies; the slope
    is ``-d``.  GPH is the classical semi-parametric alternative to the
    parametric Whittle estimator: it only assumes the ``w^{-2d}``
    divergence at the origin, so it is robust to short-range structure
    at the cost of wider confidence intervals
    (``Var(d) = pi^2 / (24 m)``).
    """
    arr = as_1d_float_array(data, "data", min_length=64)
    if not 0.0 < bandwidth_exponent < 1.0:
        raise ValueError(
            f"bandwidth_exponent must lie in (0, 1), got {bandwidth_exponent!r}"
        )
    if normalize == "normal-scores":
        from repro.core.transform import normal_scores

        arr = normal_scores(arr)
    elif normalize == "log":
        if np.any(arr <= 0):
            raise ValueError("log normalization requires strictly positive data")
        arr = np.log(arr)
    elif normalize is not None:
        raise ValueError(f'normalize must be "normal-scores", "log" or None, got {normalize!r}')
    omega, intensity = periodogram(arr)
    m = int(arr.size**bandwidth_exponent)
    m = min(max(m, 8), omega.size)
    omega_m = omega[:m]
    i_m = intensity[:m]
    usable = i_m > 0
    if usable.sum() < 8:
        raise ValueError("too few usable periodogram ordinates for GPH")
    x = np.log(4.0 * np.sin(omega_m[usable] / 2.0) ** 2)
    y = np.log(i_m[usable])
    slope, _ = np.polyfit(x, y, 1)
    d_hat = -float(slope)
    std_error = float(np.sqrt(np.pi**2 / (24.0 * usable.sum())))
    return GPHResult(
        hurst=d_hat + 0.5, d=d_hat, std_error=std_error, n_frequencies=int(usable.sum())
    )


def default_whittle_m(n):
    """The Whittle row's aggregation level for a series of length ``n``.

    The level closest to ``n / 250``, mirroring the paper's choice of
    m ~= 700 for the 171,000-frame trace.
    """
    return max(int(n) // 250, 1)


def hurst_summary(data, whittle_m=None):
    """All Table 3 estimates for one series.

    Returns a dict with keys ``"variance_time"``, ``"rs"``,
    ``"rs_aggregated"``, ``"rs_varied"`` (a ``(low, high)`` tuple) and
    ``"whittle"`` (a :class:`WhittleResult`).  ``whittle_m`` selects
    the aggregation level for the Whittle row; by default it is
    :func:`default_whittle_m` of the series length.
    """
    arr = as_1d_float_array(data, "data", min_length=1000)
    if whittle_m is None:
        whittle_m = default_whittle_m(arr.size)
    agg = aggregate(arr, int(whittle_m)) if whittle_m > 1 else arr
    # The sweep's (10, 30) cell is rs_pox's default call: the "rs" row.
    low, high, estimates = rs_sensitivity(arr)
    return {
        "variance_time": variance_time(arr).hurst,
        "rs": estimates[(10, 30)],
        "rs_aggregated": rs_aggregated(arr, m=10).hurst,
        "rs_varied": (low, high),
        "whittle": whittle(agg),
    }
