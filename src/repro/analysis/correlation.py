"""Time-correlation analysis: ACF, periodogram, aggregation (Sec. 3.2).

The empirical autocorrelation of the VBR trace decays exponentially
only up to ~100-300 lags, then hyperbolically (Fig. 7); the
periodogram diverges like ``omega^-alpha`` at low frequencies (Fig. 8);
and block-aggregated versions of the series retain significant,
similar-looking correlations at every aggregation level (Fig. 10) --
the signature of (second-order) self-similarity.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_1d_float_array, require_positive_int

__all__ = [
    "autocorrelation",
    "periodogram",
    "moving_average",
    "aggregate",
    "exponential_acf_fit",
]


def autocorrelation(data, max_lag=None):
    """Sample autocorrelation ``r(n)`` for lags ``0 .. max_lag``.

    Uses the standard biased estimator (normalizing every lag by the
    full sample size), computed with an FFT in O(n log n) so that
    Fig. 7's 10,000-lag curve over a 171,000-point trace is cheap.

    Returns an array ``r`` with ``r[0] == 1``.
    """
    arr = as_1d_float_array(data, "data", min_length=2)
    n = arr.size
    if max_lag is None:
        max_lag = n - 1
    max_lag = int(max_lag)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")
    centered = arr - arr.mean()
    var = float(np.dot(centered, centered))
    if var <= 0:
        raise ValueError("series is constant; autocorrelation is undefined")
    # FFT-based autocovariance with zero padding to avoid circular wrap.
    size = 1 << int(np.ceil(np.log2(2 * n - 1)))
    spec = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[: max_lag + 1]
    return acov / var


def periodogram(data):
    """Periodogram ``I(omega_j)`` at the Fourier frequencies.

    Returns ``(omega, intensity)`` with
    ``omega_j = 2 pi j / n`` for ``j = 1 .. floor(n/2)`` and
    ``I(omega_j) = |sum_t x_t exp(-i omega_j t)|^2 / (2 pi n)``.

    For an LRD process the intensity grows like ``omega^-alpha`` with
    ``alpha = 2H - 1`` as ``omega -> 0`` (Fig. 8); the Whittle
    estimator in :mod:`repro.analysis.hurst` is built on exactly this
    periodogram.
    """
    arr = as_1d_float_array(data, "data", min_length=4)
    n = arr.size
    spec = np.fft.rfft(arr - arr.mean())
    j = np.arange(1, n // 2 + 1)
    omega = 2.0 * np.pi * j / n
    intensity = (np.abs(spec[1 : n // 2 + 1]) ** 2) / (2.0 * np.pi * n)
    return omega, intensity


def moving_average(data, window):
    """Centered moving average (the low-pass filter of Fig. 2).

    Returns ``(positions, averages)`` where ``positions`` are the
    indices of the window centers; only full windows are evaluated
    (``len(data) - window + 1`` points).  The paper uses a 20,000-frame
    (~14 minute) window to expose the story-arc-scale low-frequency
    content of the trace.
    """
    arr = as_1d_float_array(data, "data", min_length=1)
    window = require_positive_int(window, "window")
    if window > arr.size:
        raise ValueError(f"window ({window}) exceeds series length ({arr.size})")
    csum = np.concatenate(([0.0], np.cumsum(arr)))
    averages = (csum[window:] - csum[:-window]) / window
    positions = np.arange(arr.size - window + 1) + (window - 1) / 2.0
    return positions, averages


def aggregate(data, m):
    """Block-aggregated series ``X^(m)``: means over blocks of size m.

    This is the aggregation operator of the self-similarity definition
    (Section 3.2.2): a covariance-stationary process is second-order
    exactly self-similar when ``X^(m)`` has the same autocorrelation as
    ``X`` for every ``m``.  A trailing partial block is dropped.
    """
    arr = as_1d_float_array(data, "data", min_length=1)
    m = require_positive_int(m, "m")
    n_blocks = arr.size // m
    if n_blocks == 0:
        raise ValueError(f"block size m={m} exceeds series length {arr.size}")
    return arr[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)


def exponential_acf_fit(acf_values, fit_lags):
    """Fit ``r(n) ~ rho^n`` to the early autocorrelation lags.

    The paper notes the empirical ACF is matched by an exponential
    decay only up to ~100-300 lags (Fig. 7).  This helper regresses
    ``log r(n)`` on ``n`` over ``fit_lags`` (positive lags with
    ``r > 0``) and returns ``(rho, fitted_curve)`` where
    ``fitted_curve[n] = rho ** n`` for every lag of ``acf_values``.
    """
    acf_values = as_1d_float_array(acf_values, "acf_values", min_length=3)
    fit_lags = np.asarray(fit_lags, dtype=int)
    if fit_lags.ndim != 1 or fit_lags.size < 2:
        raise ValueError("fit_lags must contain at least two lags")
    if np.any(fit_lags < 1) or np.any(fit_lags >= acf_values.size):
        raise ValueError("fit_lags must be positive and within the ACF range")
    r = acf_values[fit_lags]
    usable = r > 0
    if usable.sum() < 2:
        raise ValueError("not enough positive ACF values to fit an exponential")
    slope, _ = np.polyfit(fit_lags[usable], np.log(r[usable]), 1)
    rho = float(np.exp(slope))
    lags = np.arange(acf_values.size, dtype=float)
    return rho, rho**lags
