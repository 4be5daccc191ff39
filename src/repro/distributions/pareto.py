"""Pareto (power-law) distribution, eqs. (15)-(16) of the paper.

Density ``f(x) = a k^a / x^(a+1)`` for ``x > k`` and CDF
``F(x) = 1 - (k/x)^a``.  On log-log coordinates the complementary CDF
is a straight line of slope ``-a``; the paper observes exactly this
straight-line behaviour in the right tail of the VBR bandwidth
distribution, which is the defining evidence for the "heavy tail".

``k`` is the minimum allowed value; ``a`` (the paper's tail slope
``m_T``) controls how heavy the tail is: moments of order ``>= a``
are infinite.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive
from repro.distributions.base import Distribution

__all__ = ["Pareto"]


class Pareto(Distribution):
    """Pareto distribution with minimum ``k`` and shape (slope) ``a``."""

    def __init__(self, k, a):
        self.k = require_positive(k, "k")
        self.a = require_positive(a, "a")

    @classmethod
    def fit(cls, data):
        """Maximum-likelihood fit.

        ``k`` is the sample minimum (its MLE) and ``a`` the Hill
        estimator ``n / sum(log(x_i / k))``.
        """
        data = np.asarray(data, dtype=float)
        if data.size == 0:
            raise ValueError("cannot fit a Pareto distribution to empty data")
        k = require_positive(float(np.min(data)), "k")
        logs = np.log(data / k)
        total = float(np.sum(logs))
        if total <= 0:
            raise ValueError("data is degenerate at k; cannot estimate the Pareto shape")
        return cls(k, data.size / total)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > self.k, self.a * self.k**self.a / np.maximum(x, self.k) ** (self.a + 1.0), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > self.k, 1.0 - (self.k / np.maximum(x, self.k)) ** self.a, 0.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > self.k, (self.k / np.maximum(x, self.k)) ** self.a, 1.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.k * (1.0 - q) ** (-1.0 / self.a)
        return out if out.ndim else float(out)

    def mean(self):
        if self.a <= 1:
            return float("inf")
        return self.a * self.k / (self.a - 1.0)

    def var(self):
        if self.a <= 2:
            return float("inf")
        return self.k**2 * self.a / ((self.a - 1.0) ** 2 * (self.a - 2.0))

    def __repr__(self):
        return f"Pareto(k={self.k:.6g}, a={self.a:.6g})"
