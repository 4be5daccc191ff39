"""The paper's primary contribution: self-similar VBR traffic generation.

The Garrett-Willinger source model has four parameters: ``mu_gamma``,
``sigma_gamma`` and ``tail_shape`` describing the hybrid Gamma/Pareto
marginal distribution, and the Hurst parameter ``H`` describing the
long-range dependent time-correlation structure.  Synthetic traffic is
produced in two steps:

1. generate a Gaussian fractional ARIMA(0, d, 0) sequence with
   ``d = H - 1/2`` (Hosking's exact algorithm, or the fast
   Davies-Harte or Paxson fractional-Gaussian-noise generators as an
   extension; :mod:`repro.core.fgn` resolves them by name);
2. distort the marginals point-wise with
   ``Y_k = Finv_GammaPareto(F_Normal(X_k))`` (eq. 13), which preserves
   the ordering (and hence, to excellent approximation, the measured
   Hurst parameter) while imposing the heavy-tailed marginal.
"""

from repro.core.batch import batch_generate
from repro.core.fractional import (
    d_from_hurst,
    farima_acf,
    fgn_acf,
    fractional_binomial_weights,
)
from repro.core.hosking import HoskingGenerator, hosking_farima
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.transform import marginal_transform, normal_scores
from repro.core.model import VBRVideoModel
from repro.core.baselines import IIDGammaParetoModel, GaussianFarimaModel

__all__ = [
    "batch_generate",
    "d_from_hurst",
    "farima_acf",
    "fgn_acf",
    "fractional_binomial_weights",
    "HoskingGenerator",
    "hosking_farima",
    "DaviesHarteGenerator",
    "marginal_transform",
    "normal_scores",
    "VBRVideoModel",
    "IIDGammaParetoModel",
    "GaussianFarimaModel",
]
