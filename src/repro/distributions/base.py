"""Common distribution interface and a tabulated-distribution helper.

:class:`Distribution` is the abstract base class all parametric models
in :mod:`repro.distributions` derive from.  :class:`TabulatedDistribution`
represents a distribution by a discretized CDF table; the paper uses a
10,000-point table both for the Gaussian-to-Gamma/Pareto mapping and for
convolving the marginal of several multiplexed sources.
"""

from __future__ import annotations

import abc

import numpy as np

from repro._kernel import interp, interp_index, interp_slopes
from repro._validation import as_1d_float_array, require_positive_int

__all__ = ["Distribution", "TabulatedDistribution"]


class Distribution(abc.ABC):
    """Abstract continuous univariate distribution.

    Subclasses implement :meth:`pdf`, :meth:`cdf` and :meth:`ppf`; the
    base class derives the survival function, sampling and moments from
    those.  All array-valued methods accept scalars or array-likes and
    return numpy arrays (or scalars for scalar input) following numpy
    broadcasting conventions.
    """

    @abc.abstractmethod
    def pdf(self, x):
        """Probability density function evaluated at ``x``."""

    @abc.abstractmethod
    def cdf(self, x):
        """Cumulative distribution function ``P(X <= x)``."""

    @abc.abstractmethod
    def ppf(self, q):
        """Percent-point function (inverse CDF) evaluated at ``q``."""

    @abc.abstractmethod
    def mean(self):
        """Expected value of the distribution."""

    @abc.abstractmethod
    def var(self):
        """Variance of the distribution."""

    def sf(self, x):
        """Survival function ``P(X > x)`` (complementary CDF)."""
        return 1.0 - self.cdf(x)

    def std(self):
        """Standard deviation of the distribution."""
        return float(np.sqrt(self.var()))

    def sample(self, size, rng=None):
        """Draw ``size`` i.i.d. samples by inverse-transform sampling.

        Parameters
        ----------
        size:
            Number of samples (positive integer) or a shape tuple.
        rng:
            A :class:`numpy.random.Generator`; a fresh default
            generator is created when omitted.
        """
        if rng is None:
            rng = np.random.default_rng()
        u = rng.uniform(size=size)
        return self.ppf(u)

    def loglike(self, data):
        """Total log-likelihood of ``data`` under this distribution."""
        arr = as_1d_float_array(data, "data")
        dens = np.asarray(self.pdf(arr), dtype=float)
        with np.errstate(divide="ignore"):
            logdens = np.log(dens)
        if np.any(~np.isfinite(logdens)):
            return -np.inf
        return float(np.sum(logdens))


class TabulatedDistribution(Distribution):
    """Distribution represented by a monotone CDF lookup table.

    The table stores ``(x_i, F(x_i))`` pairs on a grid; ``cdf`` and
    ``ppf`` interpolate linearly between grid points and ``pdf`` is the
    piecewise-constant derivative of the interpolated CDF.  This mirrors
    the paper's use of a 10,000-point table to represent the
    Gamma/Pareto distribution and its n-fold convolutions.
    """

    def __init__(self, x, cdf_values):
        x = as_1d_float_array(x, "x", min_length=2)
        cdf_values = as_1d_float_array(cdf_values, "cdf_values", min_length=2)
        if x.shape != cdf_values.shape:
            raise ValueError(
                f"x and cdf_values must have the same length, got {x.size} and {cdf_values.size}"
            )
        if np.any(np.diff(x) <= 0):
            raise ValueError("x grid must be strictly increasing")
        if np.any(np.diff(cdf_values) < 0):
            raise ValueError("cdf_values must be non-decreasing")
        if cdf_values[0] < -1e-9 or cdf_values[-1] > 1 + 1e-9:
            raise ValueError("cdf_values must lie in [0, 1]")
        self._x = x
        self._cdf = np.clip(cdf_values, 0.0, 1.0)
        # Precompute the CDF points used for ppf interpolation: keep
        # both edges of every flat (zero-density) run and drop the
        # interiors, so quantiles interpolate within the correct rising
        # segment on either side of a gap in the support.
        n = self._cdf.size
        rising_after = np.concatenate((np.diff(self._cdf) > 0, [True]))
        rising_before = np.concatenate(([True], np.diff(self._cdf) > 0))
        keep = rising_after | rising_before
        keep[0] = keep[-1] = True
        self._ppf_x = self._x[keep]
        self._ppf_q = self._cdf[keep]
        self._ppf_slopes = interp_slopes(self._ppf_q, self._ppf_x)
        self._ppf_index = interp_index(self._ppf_q)

    @classmethod
    def from_distribution(cls, dist, n_points=10_000, q_lo=1e-7, q_hi=1.0 - 1e-7):
        """Tabulate ``dist`` on a grid covering quantiles [q_lo, q_hi]."""
        n_points = require_positive_int(n_points, "n_points")
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        lo = float(dist.ppf(q_lo))
        hi = float(dist.ppf(q_hi))
        x = np.linspace(lo, hi, n_points)
        return cls(x, np.asarray(dist.cdf(x), dtype=float))

    @property
    def support(self):
        """``(x_min, x_max)`` covered by the table."""
        return float(self._x[0]), float(self._x[-1])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        mids = 0.5 * (self._x[:-1] + self._x[1:])
        dens = np.diff(self._cdf) / np.diff(self._x)
        idx = np.clip(np.searchsorted(mids, x), 0, dens.size - 1)
        out = dens[idx]
        out = np.where((x < self._x[0]) | (x > self._x[-1]), 0.0, out)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self._x, self._cdf, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        # np.interp's result, compiled (repro._kernel.interp).
        out = interp(q, self._ppf_q, self._ppf_x, self._ppf_slopes, self._ppf_index)
        return out if out.ndim else float(out)

    def ppf_clipped(self, q, lo, hi):
        """``ppf`` of ``q`` clipped to ``[lo, hi]``, then to the table's quantile range.

        ``ppf(np.clip(np.clip(q, lo, hi), q_min, q_max))`` bit for bit,
        in one compiled pass.  After the second clip every ``q`` lies in
        ``[0, 1]`` (or is NaN), so there is nothing to range-check.
        """
        q = np.asarray(q, dtype=float)
        clamps = ((lo, hi), (self._ppf_q[0], self._ppf_q[-1]))
        out = interp(q, self._ppf_q, self._ppf_x, self._ppf_slopes, self._ppf_index, clamps)
        return out if out.ndim else float(out)

    def mean(self):
        # Expectation of the piecewise-linear CDF: density is constant
        # on each cell, so the cell contributes mass * cell midpoint.
        mass = np.diff(self._cdf)
        mids = 0.5 * (self._x[:-1] + self._x[1:])
        total = mass.sum()
        if total <= 0:
            raise ValueError("table carries no probability mass")
        return float(np.sum(mass * mids) / total)

    def var(self):
        mass = np.diff(self._cdf)
        total = mass.sum()
        mids = 0.5 * (self._x[:-1] + self._x[1:])
        widths = np.diff(self._x)
        m = np.sum(mass * mids) / total
        # Second moment of a uniform cell: mid^2 + width^2 / 12.
        second = np.sum(mass * (mids**2 + widths**2 / 12.0)) / total
        return float(second - m * m)

    def convolve(self, other, n_points=10_000):
        """Distribution of the sum of independent draws from two tables.

        Used to model the aggregate bandwidth of independently
        multiplexed sources (Section 4.2 of the paper).  The densities
        are discretized onto a common step and convolved with an FFT.
        """
        if not isinstance(other, TabulatedDistribution):
            other = TabulatedDistribution.from_distribution(other, n_points)
        n_points = require_positive_int(n_points, "n_points")
        lo = self._x[0] + other._x[0]
        hi = self._x[-1] + other._x[-1]
        step = (hi - lo) / (n_points - 1)
        # Resample both PDFs on grids with a common step so the
        # convolution is a simple discrete convolution.
        xa = np.arange(self._x[0], self._x[-1] + step / 2, step)
        xb = np.arange(other._x[0], other._x[-1] + step / 2, step)
        pa = np.diff(np.interp(np.concatenate((xa - step / 2, [xa[-1] + step / 2])), self._x, self._cdf, left=0.0, right=1.0))
        pb = np.diff(np.interp(np.concatenate((xb - step / 2, [xb[-1] + step / 2])), other._x, other._cdf, left=0.0, right=1.0))
        mass = np.convolve(pa, pb)
        xs = xa[0] + xb[0] + step * np.arange(mass.size)
        cdf = np.concatenate(([0.0], np.cumsum(mass)))
        cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
        xs = np.concatenate(([xs[0] - step / 2], xs + step / 2))
        return TabulatedDistribution(xs, cdf)

    def __repr__(self):
        lo, hi = self.support
        return f"TabulatedDistribution(n={self._x.size}, support=[{lo:.6g}, {hi:.6g}])"
