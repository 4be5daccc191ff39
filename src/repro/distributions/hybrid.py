"""Hybrid Gamma/Pareto marginal distribution ``F_{Gamma/Pareto}``.

Section 4.2 of the paper constructs the marginal model for VBR video
bandwidth as a Gamma distribution in the body spliced to a Pareto power
law in the right tail.  The splice point ``x_th`` is *not* a free
parameter: it is the unique abscissa where the (varying) log-log slope
of the Gamma complementary CDF equals the (constant) log-log slope
``-a`` of the Pareto tail.  Matching slope and position there makes
both the CDF and the density continuous, and leaves the model with only
three marginal parameters:

- ``mu_gamma``    -- equivalent mean of the Gamma portion,
- ``sigma_gamma`` -- equivalent standard deviation of the Gamma portion,
- ``tail_shape``  -- the Pareto shape ``a`` (the paper's tail slope
  ``m_T`` is ``-a`` on the log-log CCDF plot).

For the Star-Wars trace the heavy tail holds only ~3% of the mass, so
the paper simply uses the sample mean and standard deviation for the
Gamma part, and a least-squares fit of the log-log CCDF tail for ``a``.
:meth:`GammaParetoHybrid.fit` implements exactly that procedure.
"""

from __future__ import annotations

import numpy as np

from repro._brent import brentq
from repro._validation import as_1d_float_array, require_positive
from repro.distributions.base import Distribution, TabulatedDistribution
from repro.distributions.gamma import Gamma

__all__ = ["GammaParetoHybrid"]


def _find_splice_point(gamma, tail_shape):
    """Locate ``x_th`` where the Gamma log-log CCDF slope equals ``-a``.

    The slope magnitude ``x f(x) / SF(x)`` starts near 0 for small x
    and grows without bound (asymptotically like ``rate * x``), so a
    root of ``x f(x)/SF(x) - a`` always exists and bracket expansion
    followed by Brent's method finds it.
    """

    def slope_gap(x):
        sf = gamma.sf(x)
        if sf <= 0.0:
            return np.inf
        return x * gamma.pdf(x) / sf - tail_shape

    lo = gamma.mean() * 1e-9
    hi = gamma.mean()
    # Expand the upper bracket until the slope magnitude exceeds a.
    for _ in range(200):
        if slope_gap(hi) > 0:
            break
        hi *= 1.5
    else:  # pragma: no cover - cannot happen for a valid Gamma
        raise RuntimeError("failed to bracket the Gamma/Pareto splice point")
    if slope_gap(lo) >= 0:
        # Extremely small shape: the slope already exceeds a near zero.
        lo = gamma.mean() * 1e-15
    return brentq(slope_gap, lo, hi, xtol=1e-12 * hi, rtol=1e-14)


class GammaParetoHybrid(Distribution):
    """The paper's three-parameter Gamma/Pareto marginal model.

    Parameters
    ----------
    mu_gamma:
        Mean of the Gamma body (``mu_Gamma`` in the paper).
    sigma_gamma:
        Standard deviation of the Gamma body (``sigma_Gamma``).
    tail_shape:
        Pareto shape ``a`` > 0; the log-log CCDF tail slope is ``-a``.

    Attributes
    ----------
    gamma:
        The fitted :class:`~repro.distributions.gamma.Gamma` body.
    x_th:
        Splice abscissa where body and tail meet with equal slope.
    tail_mass:
        Probability carried by the Pareto tail, ``SF_Gamma(x_th)``.
    """

    def __init__(self, mu_gamma, sigma_gamma, tail_shape):
        self.mu_gamma = require_positive(mu_gamma, "mu_gamma")
        self.sigma_gamma = require_positive(sigma_gamma, "sigma_gamma")
        self.tail_shape = require_positive(tail_shape, "tail_shape")
        self.gamma = Gamma.from_moments(self.mu_gamma, self.sigma_gamma)
        self.x_th = _find_splice_point(self.gamma, self.tail_shape)
        self.tail_mass = float(self.gamma.sf(self.x_th))
        self._cdf_th = 1.0 - self.tail_mass

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, data, tail_fraction=0.03):
        """Fit the hybrid model to data with the paper's procedure.

        ``mu_gamma`` and ``sigma_gamma`` are the sample mean and
        standard deviation (adequate when the tail carries only a few
        percent of the mass, as for the Star-Wars trace); ``tail_shape``
        is minus the least-squares slope of the log-log empirical CCDF
        restricted to the top ``tail_fraction`` of the sample, at least
        50 points.
        """
        from repro.distributions.fitting import fit_pareto_tail_slope

        arr = as_1d_float_array(data, "data", min_length=50)
        if np.any(arr <= 0):
            raise ValueError("bandwidth data must be strictly positive")
        a = fit_pareto_tail_slope(arr, tail_fraction=tail_fraction, min_points=50)
        return cls(float(np.mean(arr)), float(np.std(arr, ddof=0)), a)

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        body = self.gamma.pdf(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = (
                self.tail_mass
                * self.tail_shape
                * self.x_th**self.tail_shape
                / np.maximum(x, self.x_th) ** (self.tail_shape + 1.0)
            )
        out = np.where(x <= self.x_th, body, tail)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        body = self.gamma.cdf(x)
        tail = 1.0 - self.tail_mass * (self.x_th / np.maximum(x, self.x_th)) ** self.tail_shape
        out = np.where(x <= self.x_th, body, tail)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        body = self.gamma.sf(x)
        tail = self.tail_mass * (self.x_th / np.maximum(x, self.x_th)) ** self.tail_shape
        out = np.where(x <= self.x_th, body, tail)
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        body = self.gamma.ppf(np.minimum(q, self._cdf_th))
        with np.errstate(divide="ignore"):
            tail = self.x_th * (self.tail_mass / np.maximum(1.0 - q, 1e-300)) ** (1.0 / self.tail_shape)
        out = np.where(q <= self._cdf_th, body, tail)
        out = np.where(q >= 1.0, np.inf if self.tail_mass > 0 else body, out)
        return out if out.ndim else float(out)

    def mean(self):
        """Exact mean: truncated-Gamma body plus Pareto tail contribution."""
        from scipy import special

        s, lam = self.gamma.shape, self.gamma.rate
        body = (s / lam) * special.gammainc(s + 1.0, lam * self.x_th)
        if self.tail_shape <= 1.0:
            return float("inf")
        tail = self.tail_mass * self.tail_shape * self.x_th / (self.tail_shape - 1.0)
        return float(body + tail)

    def var(self):
        from scipy import special

        if self.tail_shape <= 2.0:
            return float("inf")
        s, lam = self.gamma.shape, self.gamma.rate
        second_body = (s * (s + 1.0) / lam**2) * special.gammainc(s + 2.0, lam * self.x_th)
        second_tail = self.tail_mass * self.tail_shape * self.x_th**2 / (self.tail_shape - 2.0)
        m = self.mean()
        return float(second_body + second_tail - m * m)

    # ------------------------------------------------------------------
    # Paper-specific machinery
    # ------------------------------------------------------------------
    def mapping_table(self, n_points=10_000, q_hi=None):
        """Tabulate the distribution, as the paper does with 10,000 points.

        The table is used both for the Gaussian-to-Gamma/Pareto marginal
        transform and for the convolution of multiplexed sources.  The
        upper quantile defaults to ``1 - 1/(10 n_points)`` so the table
        reaches into the Pareto tail without chasing the (unbounded)
        extreme quantiles.
        """
        if q_hi is None:
            q_hi = 1.0 - 1.0 / (10.0 * n_points)
        return TabulatedDistribution.from_distribution(self, n_points=n_points, q_lo=1e-7, q_hi=q_hi)

    def aggregate(self, n_sources, n_points=10_000):
        """Marginal distribution of ``n_sources`` independent sources.

        Implements the paper's table-based convolution of the
        Gamma/Pareto distribution (Section 4.2): the aggregate
        bandwidth of N statistically multiplexed, independent sources
        has the N-fold convolution of the single-source marginal.
        Returns a :class:`TabulatedDistribution`.
        """
        if not isinstance(n_sources, (int, np.integer)) or isinstance(n_sources, bool):
            raise TypeError(f"n_sources must be an integer, got {n_sources!r}")
        if n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {n_sources}")
        table = self.mapping_table(n_points)
        result = table
        # Binary exponentiation over convolution keeps the error and the
        # runtime down to O(log n) convolutions.
        n = int(n_sources) - 1
        power = table
        while n > 0:
            if n & 1:
                result = result.convolve(power, n_points=n_points)
            n >>= 1
            if n:
                power = power.convolve(power, n_points=n_points)
        return result

    def __repr__(self):
        return (
            f"GammaParetoHybrid(mu_gamma={self.mu_gamma:.6g}, "
            f"sigma_gamma={self.sigma_gamma:.6g}, tail_shape={self.tail_shape:.6g}, "
            f"x_th={self.x_th:.6g}, tail_mass={self.tail_mass:.4g})"
        )
