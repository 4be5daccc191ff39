"""Gamma distribution, parameterized as in the paper (eq. 14).

The density is ``f(x) = exp(-lambda x) * lambda (lambda x)^(s-1) / Gamma(s)``
with *shape* ``s`` and *scale* (rate) ``lambda``.  The paper determines
``s`` and ``lambda`` "conveniently from the mean and variance":
``mean = s / lambda`` and ``var = s / lambda**2``, i.e.

    ``s = mean**2 / var``,  ``lambda = mean / var``.

The Gamma distribution matches the *body* and left tail of the
empirical VBR bandwidth distribution well (Figs. 4-5) but its right
tail decays exponentially fast, which motivates the Pareto splice of
:mod:`repro.distributions.hybrid`.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro._validation import require_positive
from repro.distributions.base import Distribution

__all__ = ["Gamma"]


class Gamma(Distribution):
    """Gamma distribution with shape ``s`` and rate ``lam``."""

    def __init__(self, shape, rate):
        self.shape = require_positive(shape, "shape")
        self.rate = require_positive(rate, "rate")

    @classmethod
    def from_moments(cls, mean, std):
        """Construct from mean and standard deviation (paper's method)."""
        mean = require_positive(mean, "mean")
        std = require_positive(std, "std")
        var = std * std
        return cls(shape=mean * mean / var, rate=mean / var)

    @classmethod
    def fit(cls, data):
        """Method-of-moments fit (the paper's choice for this trace)."""
        data = np.asarray(data, dtype=float)
        mean = float(np.mean(data))
        std = float(np.std(data, ddof=0))
        return cls.from_moments(mean, std)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        pos = x > 0
        # Work in log space for numerical stability at large shape.
        lx = np.log(x[pos] * self.rate)
        logpdf = (
            -self.rate * x[pos]
            + (self.shape - 1.0) * lx
            + np.log(self.rate)
            - special.gammaln(self.shape)
        )
        out[pos] = np.exp(logpdf)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, special.gammainc(self.shape, self.rate * np.maximum(x, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, special.gammaincc(self.shape, self.rate * np.maximum(x, 0.0)), 1.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        out = special.gammaincinv(self.shape, q) / self.rate
        return out if out.ndim else float(out)

    def mean(self):
        return self.shape / self.rate

    def var(self):
        return self.shape / self.rate**2

    def sample(self, size, rng=None):
        if rng is None:
            rng = np.random.default_rng()
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def __repr__(self):
        return f"Gamma(shape={self.shape:.6g}, rate={self.rate:.6g})"
