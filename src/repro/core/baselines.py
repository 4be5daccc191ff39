"""Baseline traffic models the paper compares against (Fig. 16).

The model-validation experiment runs four sources through the same
queueing harness:

1. the empirical trace itself,
2. the full Garrett-Willinger model (LRD + Gamma/Pareto marginals),
3. a fractional ARIMA model with plain *Gaussian* marginals
   (:class:`GaussianFarimaModel`) -- LRD but no heavy tail, and
4. an i.i.d. process with Gamma/Pareto marginals
   (:class:`IIDGammaParetoModel`) -- heavy tail but no dependence.

The full model consistently outperforms both crippled variants,
demonstrating that *both* features matter.  Two classical short-range
dependent models, :class:`AR1Model` and :class:`DAR1Model`, are also
provided: they represent the "commonly used" VBR video models whose
exponentially decaying autocorrelations cannot capture LRD, and they
power the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    require_in_open_interval,
    require_positive,
    require_positive_int,
)
from repro.core.fgn import fgn_backend, fgn_generator

__all__ = [
    "IIDGammaParetoModel",
    "GaussianFarimaModel",
    "AR1Model",
    "DAR1Model",
]


class IIDGammaParetoModel:
    """I.i.d. traffic with the hybrid Gamma/Pareto marginal.

    Captures the heavy tail but has *no* time correlation whatsoever
    (H = 1/2 by construction).  In Fig. 16 this variant needs visibly
    different resources than the trace because it cannot reproduce the
    persistence of bad states.
    """

    name = "iid-gamma-pareto"

    def __init__(self, marginal):
        if not hasattr(marginal, "ppf"):
            raise TypeError("marginal must be a Distribution with a ppf method")
        self.marginal = marginal

    def generate(self, n, rng=None):
        """Generate ``n`` independent draws from the marginal."""
        n = require_positive_int(n, "n")
        if rng is None:
            rng = np.random.default_rng()
        return np.asarray(self.marginal.sample(n, rng=rng), dtype=float)

    def __repr__(self):
        return f"IIDGammaParetoModel(marginal={self.marginal!r})"


class GaussianFarimaModel:
    """Fractional ARIMA traffic with Gaussian marginals.

    Captures the long-range dependence but not the heavy tail.  The
    Gaussian is located/scaled to the requested mean and standard
    deviation; since bandwidth cannot be negative the output is clipped
    at zero (for the Star-Wars parameters the mean sits ~4.4 sigma
    above zero, so the clip is essentially never active).
    """

    name = "gaussian-farima"

    def __init__(self, mean, std, hurst, generator="hosking"):
        self.mean = require_positive(mean, "mean")
        self.std = require_positive(std, "std")
        self.hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
        self.generator = fgn_backend(generator, exact=True).name

    def generate(self, n, rng=None):
        """Generate ``n`` points of Gaussian-marginal LRD traffic."""
        n = require_positive_int(n, "n")
        x = fgn_generator(self.generator, self.hurst).generate(n, rng=rng)
        return np.clip(self.mean + self.std * x, 0.0, None)

    def __repr__(self):
        return (
            f"GaussianFarimaModel(mean={self.mean:.6g}, std={self.std:.6g}, "
            f"hurst={self.hurst:.4g}, generator={self.generator!r})"
        )


class AR1Model:
    """Classical first-order autoregressive (Markovian) source model.

    ``X_k = mean + phi (X_{k-1} - mean) + eps_k`` with Gaussian
    innovations scaled so the marginal standard deviation is ``std``.
    Autocorrelation decays exponentially, ``r(n) = phi^n`` -- the
    short-range structure the paper shows matches the empirical ACF
    only up to ~100-300 lags (Fig. 7).
    """

    name = "ar1"

    def __init__(self, mean, std, phi):
        self.mean = require_positive(mean, "mean")
        self.std = require_positive(std, "std")
        self.phi = require_in_open_interval(phi, "phi", -1.0, 1.0)

    def generate(self, n, rng=None):
        """Generate ``n`` points, starting from the stationary law."""
        n = require_positive_int(n, "n")
        if rng is None:
            rng = np.random.default_rng()
        innov_sd = self.std * np.sqrt(1.0 - self.phi**2)
        eps = rng.normal(0.0, innov_sd, size=n)
        out = np.empty(n)
        x = rng.normal(0.0, self.std)
        phi = self.phi
        for k in range(n):
            x = phi * x + eps[k]
            out[k] = x
        return np.clip(self.mean + out, 0.0, None)

    def acf(self, n_lags):
        """Theoretical autocorrelation ``phi^n`` for lags 0..n_lags."""
        return self.phi ** np.arange(n_lags + 1, dtype=float)

    def __repr__(self):
        return f"AR1Model(mean={self.mean:.6g}, std={self.std:.6g}, phi={self.phi:.4g})"


class DAR1Model:
    """Discrete autoregressive model of order 1 (Markov-chain source).

    ``X_k = V_k X_{k-1} + (1 - V_k) Z_k`` with ``V_k ~ Bernoulli(rho)``
    and ``Z_k`` i.i.d. draws from an arbitrary marginal.  The marginal
    of ``X`` equals the law of ``Z`` exactly, while the autocorrelation
    decays as ``rho^n``.  DAR(1) was a popular early VBR video model;
    it can carry the correct Gamma/Pareto marginal yet remains SRD,
    making it the sharpest "right marginal, wrong correlations"
    baseline for ablations.
    """

    name = "dar1"

    def __init__(self, marginal, rho):
        if not hasattr(marginal, "sample"):
            raise TypeError("marginal must be a Distribution with a sample method")
        self.marginal = marginal
        self.rho = require_in_open_interval(rho, "rho", 0.0, 1.0)

    def generate(self, n, rng=None):
        """Generate ``n`` points of DAR(1) traffic."""
        n = require_positive_int(n, "n")
        if rng is None:
            rng = np.random.default_rng()
        z = np.asarray(self.marginal.sample(n, rng=rng), dtype=float)
        stay = rng.uniform(size=n) < self.rho
        out = np.empty(n)
        current = z[0]
        for k in range(n):
            if not stay[k] or k == 0:
                current = z[k]
            out[k] = current
        return out

    def acf(self, n_lags):
        """Theoretical autocorrelation ``rho^n`` for lags 0..n_lags."""
        return self.rho ** np.arange(n_lags + 1, dtype=float)

    def __repr__(self):
        return f"DAR1Model(marginal={self.marginal!r}, rho={self.rho:.4g})"
