"""Fig. 4: log-log complementary CDF versus candidate models.

The verdict the figure supports: Normal falls off far too fast, Gamma
matches the body but not the extreme tail, Lognormal is too heavy then
too light, and the Pareto power law (a straight line on log-log axes)
matches the measured tail.  ``run`` returns the curves plus per-model
tail-deviation scores so the ranking is machine-checkable.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.marginals import ccdf_model_comparison
from repro.experiments.data import reference_trace

__all__ = ["run", "tail_log_deviation"]


def tail_log_deviation(result, model_name):
    """Mean |log10 model SF - log10 empirical SF| over the tail region.

    Measures how well ``model_name`` tracks the empirical tail on the
    log-log plot; smaller is better.  Grid points where either curve
    has probability below 1/n (no empirical resolution) are skipped.
    """
    x = result["x"]
    emp = result["empirical"]
    model = result[model_name]
    floor = 1.0 / (10 * x.size) if x.size else 0.0
    mask = (emp <= 0.03) & (emp > max(floor, 1e-12)) & (model > 1e-300)
    if not np.any(mask):
        raise ValueError(f"no usable tail points for model {model_name!r}")
    return float(np.mean(np.abs(np.log10(model[mask]) - np.log10(emp[mask]))))


def run(trace=None, tail_fraction=0.03, n_grid=200):
    """CCDF curves and tail-fit ranking for all candidate models.

    Returns the dict of
    :func:`repro.analysis.marginals.ccdf_model_comparison` augmented
    with ``"tail_deviation"`` (``{model: score}``) and ``"ranking"``
    (model names sorted by tail fit, best first).
    """
    if trace is None:
        trace = reference_trace()
    result = ccdf_model_comparison(trace.frame_bytes, tail_fraction=tail_fraction, n_grid=n_grid)
    deviations = {}
    for name in ("normal", "gamma", "lognormal", "pareto", "gamma_pareto"):
        try:
            deviations[name] = tail_log_deviation(result, name)
        except ValueError:
            deviations[name] = float("inf")
    result["tail_deviation"] = deviations
    result["ranking"] = sorted(deviations, key=deviations.get)
    return result
