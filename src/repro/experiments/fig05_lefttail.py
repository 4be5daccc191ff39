"""Fig. 5: log-log cumulative distribution of the left tail.

The left tail is not symmetric to the right one; the paper finds the
Gamma fit adequate at the lower end, which justifies using the Gamma
body in the hybrid model.  ``run`` scores each candidate's left-tail
fit the same way Fig. 4's right-tail scoring works.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.marginals import left_tail_comparison
from repro.experiments.data import reference_trace

__all__ = ["run", "left_tail_log_deviation"]


def left_tail_log_deviation(result, model_name):
    """Mean |log10 model CDF - log10 empirical CDF| on the left tail."""
    emp = result["empirical"]
    model = np.asarray(result[model_name], dtype=float)
    x = result["x"]
    floor = 1.0 / (10 * x.size) if x.size else 0.0
    mask = (emp <= 0.05) & (emp > max(floor, 1e-12)) & (model > 1e-300)
    if not np.any(mask):
        raise ValueError(f"no usable left-tail points for model {model_name!r}")
    return float(np.mean(np.abs(np.log10(model[mask]) - np.log10(emp[mask]))))


def run(trace=None, tail_fraction=0.03, n_grid=200):
    """Left-tail CDF curves plus per-model deviation scores."""
    if trace is None:
        trace = reference_trace()
    result = left_tail_comparison(trace.frame_bytes, tail_fraction=tail_fraction, n_grid=n_grid)
    deviations = {}
    for name in ("normal", "gamma", "lognormal", "gamma_pareto"):
        try:
            deviations[name] = left_tail_log_deviation(result, name)
        except ValueError:
            deviations[name] = float("inf")
    result["left_tail_deviation"] = deviations
    return result
