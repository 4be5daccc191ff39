"""Davies-Harte circulant-embedding generator for fractional Gaussian noise.

Hosking's exact algorithm (the paper's generator) costs O(n^2); the
paper notes 171,000 points took ~10 hours in 1994 and leaves faster
generation as future work.  The Davies-Harte method is the standard
answer: embed the FGN autocovariance in a circulant matrix of size 2n,
diagonalize it with an FFT, and synthesize an *exact* sample path in
O(n log n).  For fractional Gaussian noise the circulant eigenvalues
are provably non-negative, so the method is exact rather than
approximate.

The FGN produced here and Hosking's fARIMA(0, d, 0) share the same
Hurst parameter and hyperbolic autocorrelation decay; either may drive
the Garrett-Willinger model (``generator="davies-harte"``).
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_in_open_interval, require_positive, require_positive_int
from repro.core.fractional import fgn_acf
from repro.obs import metrics, trace
from repro.par import cache as _cache

__all__ = ["DaviesHarteGenerator"]

_SAMPLES = metrics.registry().counter(
    "repro_generator_samples_total",
    help="Gaussian samples generated, by backend",
    unit="samples", labels={"generator": "daviesharte"},
)


class DaviesHarteGenerator:
    """Exact O(n log n) fractional-Gaussian-noise generator.

    Parameters
    ----------
    hurst:
        Hurst parameter, validated against the open stationary range
        ``(0, 1)``.  The whole range is exact here; long-range
        dependence as in the paper requires ``1/2 < H < 1``.
    variance:
        Marginal variance of the noise (mean is zero).

    The eigenvalue decomposition of the circulant embedding depends only
    on ``(hurst, n)``; it is cached so repeated same-length generations
    (e.g. many simulation replications) pay the FFT of the
    autocovariance only once.
    """

    def __init__(self, hurst, variance=1.0):
        self.hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
        self.variance = require_positive(variance, "variance")
        self._cached_n = None
        self._cached_sqrt_eig = None

    def _sqrt_eigenvalues(self, n):
        if self._cached_n == n:
            return self._cached_sqrt_eig
        # Pure function of (hurst, variance, n); served from the
        # content cache (when configured) as the exact float64 array.
        sqrt_eig = _cache.memoized(
            "daviesharte.sqrt_eig",
            {"hurst": self.hurst, "variance": self.variance, "n": n},
            lambda: self._compute_sqrt_eigenvalues(n),
        )
        self._cached_n = n
        self._cached_sqrt_eig = sqrt_eig
        return sqrt_eig

    def _compute_sqrt_eigenvalues(self, n):
        gamma = fgn_acf(self.hurst, n, variance=self.variance)
        # First row of the 2n x 2n circulant: gamma_0..gamma_n, then the
        # mirror gamma_{n-1}..gamma_1.
        row = np.concatenate((gamma, gamma[-2:0:-1]))
        eig = np.fft.fft(row).real
        min_eig = eig.min()
        if min_eig < -1e-8 * self.variance:
            # Cannot happen for true FGN; guard against misuse with a
            # non-embeddable covariance.
            raise RuntimeError(
                f"circulant embedding is not non-negative definite (min eigenvalue {min_eig:.3g})"
            )
        eig = np.clip(eig, 0.0, None)
        return np.sqrt(eig)

    def generate(self, n, rng=None):
        """Generate an FGN path of length ``n`` (requires ``n >= 2``)."""
        n = require_positive_int(n, "n")
        if rng is None:
            rng = np.random.default_rng()
        with trace.span("daviesharte.generate", n=n):
            x = self._generate(n, rng)
        _SAMPLES.inc(n)
        return x

    def _generate(self, n, rng):
        if n == 1:
            return rng.normal(0.0, np.sqrt(self.variance), size=1)
        sqrt_eig = self._sqrt_eigenvalues(n)
        m = 2 * n
        # Hermitian-symmetric complex Gaussian spectrum V with
        # E|V_k|^2 = eig_k; X = sqrt(2n) * real(ifft(V)) then has
        # autocovariance exactly gamma(0..n-1).
        v = np.empty(m, dtype=complex)
        v[0] = sqrt_eig[0] * rng.standard_normal()
        v[n] = sqrt_eig[n] * rng.standard_normal()
        re = rng.standard_normal(n - 1)
        im = rng.standard_normal(n - 1)
        half = sqrt_eig[1:n] / np.sqrt(2.0)
        v[1:n] = half * (re + 1j * im)
        v[n + 1 :] = np.conj(v[n - 1 : 0 : -1])
        x = np.sqrt(m) * np.fft.ifft(v).real
        return x[:n]

    def __repr__(self):
        return f"DaviesHarteGenerator(hurst={self.hurst:.4g}, variance={self.variance:.4g})"
