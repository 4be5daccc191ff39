"""Probability distributions used by the Garrett-Willinger analysis.

The paper compares the empirical per-frame bandwidth distribution of a
VBR video trace against the Normal, Gamma and Lognormal distributions
(which all fail in the right tail) and against the heavy-tailed Pareto
distribution (which matches the tail), and then constructs a hybrid
Gamma/Pareto marginal model ``F_{Gamma/Pareto}`` whose body is a Gamma
distribution and whose right tail is a Pareto power law, spliced at the
unique point where the two log-log complementary-CDF slopes agree.

All distributions here are implemented from first principles (scipy is
used only for special functions such as the regularized incomplete
gamma function and ``erf``).  Every distribution exposes the same
interface -- :meth:`~repro.distributions.base.Distribution.pdf`,
``cdf``, ``sf``, ``ppf``, ``mean``, ``var``, ``std`` and ``sample`` --
so that the analysis and plotting code can treat them uniformly.
"""

from repro.distributions.base import Distribution, TabulatedDistribution
from repro.distributions.normal import Normal
from repro.distributions.gamma import Gamma
from repro.distributions.lognormal import Lognormal
from repro.distributions.pareto import Pareto
from repro.distributions.hybrid import GammaParetoHybrid
from repro.distributions.fitting import (
    fit_all_candidates,
    fit_pareto_tail_slope,
    empirical_ccdf,
    empirical_cdf,
)

__all__ = [
    "Distribution",
    "TabulatedDistribution",
    "Normal",
    "Gamma",
    "Lognormal",
    "Pareto",
    "GammaParetoHybrid",
    "fit_all_candidates",
    "fit_pareto_tail_slope",
    "empirical_ccdf",
    "empirical_cdf",
]
