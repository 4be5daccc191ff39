"""Fractional differencing mathematics (Section 4.1 of the paper).

A fractional ARIMA(0, d, 0) process is defined by the fractional
differencing operator ``nabla^d`` (eq. 4) whose binomial weights are
generalized to real ``d`` through the Gamma function (eq. 5).  For
``0 < d < 1/2`` the process is stationary with long-range dependence;
its autocorrelation function (eq. 6) is

    ``rho_k = prod_{i=1..k} (i - 1 + d) / (i - d)``
            ``= Gamma(1 - d) Gamma(k + d) / (Gamma(d) Gamma(k + 1 - d))``

which decays hyperbolically like ``k^(2d - 1)``.  The Hurst parameter
relates to the differencing parameter by ``d = H - 1/2``.

The module also provides the autocovariance of fractional Gaussian
noise (the increment process of fractional Brownian motion), used by
the Davies-Harte generator.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro._validation import require_in_open_interval, require_positive_int

__all__ = [
    "d_from_hurst",
    "farima_acf",
    "fgn_acf",
    "fractional_binomial_weights",
]


def d_from_hurst(hurst):
    """Fractional differencing parameter ``d = H - 1/2``.

    Long-range dependence requires ``1/2 < H < 1`` and hence
    ``0 < d < 1/2``; this routine accepts the full stationary range
    ``0 < H < 1`` (negative ``d`` gives anti-persistent noise).
    """
    hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    return hurst - 0.5


def farima_acf(d, n_lags):
    """Autocorrelation function of fARIMA(0, d, 0) for lags 0..n_lags.

    Implements eq. (6) of the paper via a cumulative product, which is
    both exact and numerically stable::

        rho_0 = 1,  rho_k = rho_{k-1} * (k - 1 + d) / (k - d)

    Parameters
    ----------
    d:
        Fractional differencing parameter in (-1/2, 1/2).
    n_lags:
        Largest lag to evaluate (inclusive).

    Returns
    -------
    numpy.ndarray of shape ``(n_lags + 1,)`` with ``rho[0] == 1``.
    """
    d = require_in_open_interval(d, "d", -0.5, 0.5)
    n_lags = int(n_lags)
    if n_lags < 0:
        raise ValueError(f"n_lags must be >= 0, got {n_lags}")
    k = np.arange(1, n_lags + 1, dtype=float)
    if n_lags == 0:
        return np.ones(1)
    ratios = (k - 1.0 + d) / (k - d)
    return np.concatenate(([1.0], np.cumprod(ratios)))


def fgn_acf(hurst, n_lags, variance=1.0):
    """Autocovariance of fractional Gaussian noise for lags 0..n_lags.

    ``gamma(k) = (variance / 2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})``.

    This is the increment process of fractional Brownian motion and is
    exactly (second-order) self-similar; the Davies-Harte generator
    synthesizes Gaussian noise with precisely this autocovariance.
    """
    hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance!r}")
    n_lags = int(n_lags)
    if n_lags < 0:
        raise ValueError(f"n_lags must be >= 0, got {n_lags}")
    k = np.arange(0, n_lags + 1, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * variance * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)


def fractional_binomial_weights(d, n_weights):
    """Weights of the fractional differencing operator (eqs. 4-5).

    Returns ``w_i = binom(d, i) (-1)^i = Gamma(i - d) / (Gamma(-d) Gamma(i + 1))``
    for ``i = 0 .. n_weights - 1``.  Applying these weights as a
    convolution to a fARIMA(0, d, 0) path recovers (approximately,
    because the operator is truncated) white noise -- a property the
    test suite uses as an invariant.
    """
    d = require_in_open_interval(d, "d", -0.5, 0.5)
    n_weights = require_positive_int(n_weights, "n_weights")
    i = np.arange(n_weights, dtype=float)
    if d == 0.0:
        w = np.zeros(n_weights)
        w[0] = 1.0
        return w
    # log |Gamma(i - d)| - log Gamma(-d) - log Gamma(i + 1), with the
    # sign handled explicitly: Gamma(i - d) > 0 for i >= 1 and d < 1,
    # and Gamma(-d) is negative when 0 < d < 1 ... use gammasgn.
    num, num_sign = special.gammaln(i - d), special.gammasgn(i - d)
    den, den_sign = special.gammaln(-d), special.gammasgn(-d)
    w = num_sign * den_sign * np.exp(num - den - special.gammaln(i + 1.0))
    w[0] = 1.0
    return w
