"""Norros' fractional-Brownian-storage dimensioning formulas.

Norros (1994) analysed exactly the queueing question the paper raises
for self-similar input: a storage fed by fractional Brownian traffic
``A(t) = m t + sqrt(a m) Z(t)`` (mean rate ``m``, variance coefficient
``a``, ``Z`` fBm with Hurst parameter ``H``) and drained at constant
rate ``C``.  The stationary queue tail is Weibull-ish:

    ``P(V > b) ~= exp( -(C - m)^{2H} b^{2-2H} / (2 kappa^2 a m) )``

with ``kappa = H^H (1 - H)^{1-H}``.  Inverting for the capacity that
holds the overflow probability at ``epsilon`` gives the celebrated
dimensioning formula

    ``C = m + (-2 ln(eps) kappa^2 a m)^{1/(2H)} * b^{-(1-H)/H}``.

These closed forms provide an analytical cross-check on the library's
simulation machinery: the benchmark compares the formula against the
capacity found by bisection over the fluid queue driven by synthetic
fBm-like traffic.  Note the formula's own message mirrors the paper's:
for ``H > 1/2`` the buffer exponent ``2 - 2H < 1``, so buffering is
dramatically less effective than for SRD (``H = 1/2``) traffic.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_in_open_interval, require_positive

__all__ = ["norros_kappa", "norros_capacity"]


def norros_kappa(hurst):
    """``kappa(H) = H^H (1 - H)^{1 - H}``."""
    h = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    return h**h * (1.0 - h) ** (1.0 - h)


def norros_capacity(mean_rate, variance_coeff, buffer_size, overflow_probability, hurst):
    """Capacity holding ``P(V > b)`` at the target (the dimensioning
    formula)."""
    m = require_positive(mean_rate, "mean_rate")
    a = require_positive(variance_coeff, "variance_coeff")
    b = require_positive(buffer_size, "buffer_size")
    eps = require_in_open_interval(overflow_probability, "overflow_probability", 0.0, 1.0)
    h = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    kappa = norros_kappa(h)
    burst = (-2.0 * np.log(eps) * kappa**2 * a * m) ** (1.0 / (2.0 * h))
    return float(m + burst * b ** (-(1.0 - h) / h))
