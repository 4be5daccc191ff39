"""Fig. 16: trace-driven vs model-driven Q-C curves (the engineering test).

Four sources run through the identical zero-loss queueing harness:

- the (reference) trace itself,
- the **full model** -- fractional ARIMA with the Gamma/Pareto marginal
  transform (both LRD and the heavy tail),
- **gaussian-farima** -- LRD but plain Gaussian marginals,
- **iid-gamma-pareto** -- the heavy tail but no time dependence.

The paper finds the same general curve shape with a capacity offset,
the full model consistently closest to the trace, and all three models
converging toward the trace (and each other) as ``N`` grows.  ``run``
quantifies closeness as the mean log-capacity offset from the trace
curve at matched buffer delays.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import GaussianFarimaModel, IIDGammaParetoModel
from repro.core.model import VBRVideoModel
from repro.experiments.data import reference_trace
from repro.simulation.multiplex import lagged_arrival_sets
from repro.simulation.queue import zero_loss_capacity

__all__ = ["run", "build_model_series"]


def build_model_series(trace, seed=29, generator="davies-harte", hurst_estimator="variance-time"):
    """Fit the models to ``trace`` and generate equal-length series.

    Returns ``{"trace": ..., "full-model": ..., "gaussian-farima": ...,
    "iid-gamma-pareto": ...}`` plus the fitted model object under
    ``"_model"``.
    """
    x = trace.frame_bytes
    rng = np.random.default_rng(seed)
    model = VBRVideoModel.fit(x, hurst_estimator=hurst_estimator)
    n = x.size
    full = model.generate(n, rng=rng, generator=generator)
    gaussian = GaussianFarimaModel(
        float(np.mean(x)), float(np.std(x)), model.hurst, generator=generator
    ).generate(n, rng=rng)
    iid = IIDGammaParetoModel(model.marginal).generate(n, rng=rng)
    return {
        "trace": x,
        "full-model": full,
        "gaussian-farima": gaussian,
        "iid-gamma-pareto": iid,
        "_model": model,
    }


def _zero_loss_curve(series, slot_seconds, n, buffers, rng, n_lag_draws=6, min_separation=1000):
    """Per-source zero-loss capacity over a grid of buffer sizes."""
    arrival_sets = lagged_arrival_sets(series, n, n_lag_draws, min_separation, rng)
    capacities = np.empty(buffers.size)
    for i, q in enumerate(buffers):
        c_total = max(zero_loss_capacity(a, q) for a in arrival_sets)
        capacities[i] = c_total / n
    return capacities


def run(
    trace=None,
    n_sources=(1, 2, 5, 20),
    n_frames=60_000,
    n_buffers=10,
    seed=29,
    generator="davies-harte",
):
    """Zero-loss Q-C comparison of the trace against the three models.

    Buffer sizes span ``T_max`` from ~0.5 ms to ~1 s relative to the
    trace's mean rate.  Returns, per N, the per-source capacity curves
    (bytes/slot) for each source plus the mean relative capacity offset
    of each model from the trace (``"offsets"``); the expected ordering
    is ``full-model < gaussian-farima, iid-gamma-pareto``.
    """
    if trace is None:
        trace = reference_trace()
    if trace.n_frames > n_frames:
        trace = trace.segment(0, n_frames)
    slot_seconds = 1.0 / trace.frame_rate
    sources = build_model_series(trace, seed=seed, generator=generator)
    model = sources.pop("_model")
    mean_rate_bps = trace.mean_rate_bps / 8.0  # bytes/second
    tmax_grid_s = np.geomspace(5e-4, 1.0, n_buffers)
    buffers = tmax_grid_s * mean_rate_bps  # bytes, scaled per source below
    rng = np.random.default_rng(seed + 1)
    min_separation = min(1000, trace.n_frames // (2 * max(int(n) for n in n_sources)))
    curves = {}
    offsets = {}
    for n in n_sources:
        n = int(n)
        per_n = {}
        for name, series in sources.items():
            per_n[name] = _zero_loss_curve(
                np.asarray(series, dtype=float),
                slot_seconds,
                n,
                buffers * n,
                rng,
                min_separation=min_separation,
            )
        curves[n] = per_n
        trace_curve = per_n["trace"]
        offsets[n] = {
            name: float(np.mean(np.abs(np.log(per_n[name] / trace_curve))))
            for name in per_n
            if name != "trace"
        }
    return {
        "curves": curves,
        "buffers_bytes_per_source": buffers,
        "tmax_reference_s": tmax_grid_s,
        "offsets": offsets,
        "model": model,
        "n_sources": tuple(int(n) for n in n_sources),
        "slot_seconds": slot_seconds,
    }
