"""Hosking's exact algorithm for fractional ARIMA(0, d, 0) generation.

This is the paper's traffic generator (Section 4.1, eqs. 7-12, adapted
from Hosking 1984).  The algorithm is a Durbin-Levinson recursion that
draws each new point from its exact conditional Gaussian distribution
given the entire past:

    ``N_k   = rho_k - sum_{j=1..k-1} phi_{k-1,j} rho_{k-j}``
    ``D_k   = D_{k-1} - N_{k-1}^2 / D_{k-1}``
    ``phi_kk = N_k / D_k``
    ``phi_kj = phi_{k-1,j} - phi_kk phi_{k-1,k-j}``
    ``m_k   = sum_{j=1..k} phi_kj X_{k-j}``
    ``v_k   = (1 - phi_kk^2) v_{k-1}``
    ``X_k ~ N(m_k, v_k)``

Because every point conditions on every previous point the cost is
O(n^2) -- the paper reports ~10 hours for 171,000 points on a 1994
workstation; the vectorized recursion here generates the same length in
minutes.  For long realizations the O(n log n) Davies-Harte generator
(:mod:`repro.core.daviesharte`) or Paxson's approximate synthesizer
(:mod:`repro.core.paxson`) are the practical alternatives.

The generator is *resumable*: :meth:`HoskingGenerator.extend` continues
the Durbin-Levinson recursion from the retained conditional state, so a
realization can be produced in arbitrary chunks.  Under a fixed seed,
``extend(a)`` followed by ``extend(b)`` is byte-identical to a single
``generate(a + b)`` -- the property :mod:`repro.stream.sources` relies
on to stream exact fARIMA noise.  Note the state (prediction
coefficients plus the full history) grows as O(total samples); constant
memory requires the approximate block sources in :mod:`repro.stream`.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    require_in_open_interval,
    require_positive,
    require_positive_int,
)
from repro.core.fractional import d_from_hurst, farima_acf
from repro.obs import metrics, trace
from repro.par import cache as _cache

__all__ = ["HoskingGenerator", "hosking_farima"]

_SAMPLES = metrics.registry().counter(
    "repro_generator_samples_total",
    help="Gaussian samples generated, by backend",
    unit="samples", labels={"generator": "hosking"},
)


class HoskingGenerator:
    """Exact Gaussian fARIMA(0, d, 0) sample-path generator.

    Parameters
    ----------
    hurst:
        Hurst parameter, validated against the open stationary range
        ``(0, 1)``; the differencing parameter is ``d = hurst - 1/2``.
        Pass ``d=...`` (in ``(-1/2, 1/2)``) instead to specify the
        differencing parameter directly.  Long-range dependence as in
        the paper requires ``1/2 < H < 1``.
    variance:
        Marginal variance ``v_0`` of the process (mean is zero).

    The generator is *streaming*: :meth:`extend` continues the current
    realization by any number of points (and :meth:`next` by exactly
    one), while :meth:`generate` resets and produces a full path.  The
    conditional state (partial autocorrelations and the sample history)
    is retained so paths can be extended incrementally.
    """

    def __init__(self, hurst=None, d=None, variance=1.0):
        if (hurst is None) == (d is None):
            raise ValueError("specify exactly one of hurst= or d=")
        if hurst is not None:
            d = d_from_hurst(require_in_open_interval(hurst, "hurst", 0.0, 1.0))
        else:
            d = require_in_open_interval(d, "d", -0.5, 0.5)
        self.d = float(d)
        self.hurst = self.d + 0.5
        self.variance = require_positive(variance, "variance")
        self.reset()

    def reset(self):
        """Discard the current realization and conditional state."""
        self._n = 0
        self._hist = np.zeros(0)
        self._phi = np.zeros(0)
        self._rho = np.ones(1)
        self._v = self.variance
        self._n_prev = 0.0
        self._d_prev = 1.0

    def _extend_acf(self, upto):
        if upto < self._rho.size:
            return
        # The cumulative-product table is a pure function of (d, n_lags);
        # the content cache (when configured) serves the exact float64
        # array back, so cached and fresh runs are bit-identical.
        self._rho = _cache.memoized(
            "hosking.farima_acf",
            {"d": self.d, "n_lags": upto},
            lambda: farima_acf(self.d, upto),
        )

    def _grow(self, total):
        """Ensure the history/coefficient buffers hold ``total`` points."""
        if self._hist.size >= total:
            return
        cap = max(2 * self._hist.size, total, 16)
        hist = np.zeros(cap)
        hist[: self._n] = self._hist[: self._n]
        phi = np.zeros(cap)
        if self._n > 1:
            phi[: self._n - 1] = self._phi[: self._n - 1]
        self._hist = hist
        self._phi = phi

    def extend(self, n, rng=None):
        """Continue the realization by ``n`` points; returns the new chunk.

        The Durbin-Levinson recursion resumes from the retained state,
        so ``extend(a); extend(b)`` draws the same path as one
        ``extend(a + b)`` under the same ``rng`` (numpy's Gaussian
        stream is split-invariant).  Each call costs
        O(n * total) time; memory is O(total) for the history and
        prediction coefficients.
        """
        n = require_positive_int(n, "n")
        if rng is None:
            rng = np.random.default_rng()
        k0 = self._n
        total = k0 + n
        with trace.span("hosking.extend", n=n, total=total):
            chunk = self._extend(n, rng, k0, total)
        _SAMPLES.inc(n)
        return chunk

    def _extend(self, n, rng, k0, total):
        self._extend_acf(total)
        self._grow(total)
        rho = self._rho
        hist = self._hist
        phi = self._phi
        v = self._v
        n_prev, d_prev = self._n_prev, self._d_prev
        # Scratch buffer for the Levinson coefficient update: writing the
        # reversed-product into preallocated space replaces two fresh
        # allocations per step (the defensive .copy() of the reversed
        # view plus the product temporary) with zero, while performing
        # the same elementwise multiply-then-subtract bit-for-bit.
        scratch = np.empty(max(total - 1, 1))
        start = k0
        if k0 == 0:
            hist[0] = rng.normal(0.0, np.sqrt(self.variance))
            start = 1
        # One bulk draw per chunk; noise[k - k0] drives step k, so the
        # first-ever chunk leaves noise[0] unused exactly like the
        # batch path (which draws X_0 from rng.normal separately).
        noise = rng.standard_normal(n)
        for k in range(start, total):
            if k == 1:
                n_k = rho[1]
            else:
                n_k = rho[k] - phi[: k - 1] @ rho[k - 1 : 0 : -1]
            d_k = d_prev - n_prev * n_prev / d_prev
            phi_kk = n_k / d_k
            if k > 1:
                np.multiply(phi[k - 2 :: -1], phi_kk, out=scratch[: k - 1])
                phi[: k - 1] -= scratch[: k - 1]
            phi[k - 1] = phi_kk
            m_k = phi[:k] @ hist[k - 1 :: -1]
            v *= 1.0 - phi_kk * phi_kk
            if v <= 0:
                raise RuntimeError(f"conditional variance collapsed at step {k}")
            hist[k] = m_k + np.sqrt(v) * noise[k - k0]
            n_prev, d_prev = n_k, d_k
        self._n = total
        self._v = v
        self._n_prev, self._d_prev = n_prev, d_prev
        return hist[k0:total].copy()

    def next(self, rng):
        """Draw the next point of the realization.

        Equivalent to the per-point form of :meth:`extend` except that
        the sample is drawn as ``rng.normal(m_k, sqrt(v_k))`` directly
        (one Gaussian per call rather than a bulk chunk).

        Parameters
        ----------
        rng:
            A :class:`numpy.random.Generator`.
        """
        k = self._n
        self._extend_acf(k)
        self._grow(k + 1)
        hist = self._hist
        phi = self._phi
        if k == 0:
            x = rng.normal(0.0, np.sqrt(self._v))
            hist[0] = x
            self._n = 1
            return float(x)
        rho = self._rho
        if k == 1:
            n_k = rho[1]
        else:
            n_k = rho[k] - phi[: k - 1] @ rho[k - 1 : 0 : -1]
        d_k = self._d_prev - self._n_prev**2 / self._d_prev
        phi_kk = n_k / d_k
        if not -1.0 < phi_kk < 1.0:
            raise RuntimeError(
                f"partial autocorrelation left (-1, 1) at step {k}; numerical breakdown"
            )
        if k > 1:
            phi[: k - 1] -= phi_kk * phi[k - 2 :: -1].copy()
        phi[k - 1] = phi_kk
        m_k = phi[:k] @ hist[k - 1 :: -1]
        self._v *= 1.0 - phi_kk**2
        x = rng.normal(m_k, np.sqrt(self._v))
        self._n_prev = n_k
        self._d_prev = d_k
        hist[k] = x
        self._n = k + 1
        return float(x)

    def generate(self, n, rng=None):
        """Generate a fresh realization of length ``n``.

        Resets any previous state first; use :meth:`extend` for
        incremental continuation.  Cost is O(n^2) time and O(n) memory.
        """
        n = require_positive_int(n, "n")
        if rng is None:
            rng = np.random.default_rng()
        self.reset()
        return self.extend(n, rng=rng)

    def __repr__(self):
        return f"HoskingGenerator(hurst={self.hurst:.4g}, variance={self.variance:.4g})"


def hosking_farima(n, hurst=0.8, variance=1.0, rng=None):
    """Convenience wrapper: one fARIMA(0, d, 0) path of length ``n``."""
    return HoskingGenerator(hurst=hurst, variance=variance).generate(n, rng=rng)
