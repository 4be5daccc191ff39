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
demonstrating that *both* features matter.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    require_in_open_interval,
    require_positive,
    require_positive_int,
)
from repro.core.fgn import fgn_backend, fgn_generator

__all__ = ["IIDGammaParetoModel", "GaussianFarimaModel"]


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
