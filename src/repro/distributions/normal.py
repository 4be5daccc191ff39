"""Normal (Gaussian) distribution.

The paper uses the Normal distribution in two roles: as one of the
candidate marginal models whose tail decays *too quickly* to match the
empirical VBR bandwidth distribution (Fig. 4), and as the marginal law
of the fractional ARIMA(0, d, 0) process produced by Hosking's
algorithm, which is subsequently transformed to the Gamma/Pareto
marginal via ``Y = Finv_GP(F_N(X))`` (eq. 13).
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro._validation import require_positive
from repro.distributions.base import Distribution

__all__ = ["Normal"]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Normal(Distribution):
    """Normal distribution ``N(mu, sigma^2)``.

    Parameters
    ----------
    mu:
        Mean (any finite real).
    sigma:
        Standard deviation (positive).
    """

    def __init__(self, mu=0.0, sigma=1.0):
        self.mu = float(mu)
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        self.sigma = require_positive(sigma, "sigma")

    @classmethod
    def fit(cls, data):
        """Moment/ML fit (identical for the Normal distribution)."""
        data = np.asarray(data, dtype=float)
        mu = float(np.mean(data))
        sigma = float(np.std(data, ddof=0))
        if sigma <= 0:
            raise ValueError("data has zero variance; cannot fit a Normal distribution")
        return cls(mu, sigma)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        out = _INV_SQRT_2PI / self.sigma * np.exp(-0.5 * z * z)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # 0.5 * (1.0 + erf((x - mu) / (sigma * sqrt2))), operation for
        # operation, in one array: the eq. 13 transform maps every chunk
        # of a stream through here.
        z = x - self.mu
        z /= self.sigma * _SQRT2
        out = special.erf(z, out=z) if z.ndim else special.erf(z)
        out += 1.0
        out *= 0.5
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * special.erfc((x - self.mu) / (self.sigma * _SQRT2))
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        out = self.mu + self.sigma * _SQRT2 * special.erfinv(2.0 * q - 1.0)
        return out if out.ndim else float(out)

    def mean(self):
        return self.mu

    def var(self):
        return self.sigma**2

    def sample(self, size, rng=None):
        if rng is None:
            rng = np.random.default_rng()
        return rng.normal(self.mu, self.sigma, size=size)

    def __repr__(self):
        return f"Normal(mu={self.mu:.6g}, sigma={self.sigma:.6g})"
