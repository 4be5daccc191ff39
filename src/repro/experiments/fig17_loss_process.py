"""Fig. 17: error processes over the full interval for N = 1 and N = 20.

Both systems are tuned to the same overall loss rate (``P_l = 1e-3``)
with buffers sized for ``T_max = 2 ms``; the running-average loss rate
over a 1,000-frame window then reveals how differently the losses are
distributed in time -- the single source suffers long concentrated
loss episodes while the multiplexed system's losses are spread out.
``run`` also reports concentration statistics (fraction of loss carried
by the worst 1% of windows) that make the contrast quantitative.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.data import reference_trace
from repro.simulation.metrics import windowed_loss_rate
from repro.simulation.multiplex import lagged_arrival_sets
from repro.simulation.qc import required_capacity
from repro.simulation.queue import simulate_queue

__all__ = ["run"]


def _loss_concentration(loss_series, top_fraction=0.01, window=1000):
    """Fraction of all lost bytes inside the worst ``top_fraction`` windows."""
    csum = np.concatenate(([0.0], np.cumsum(loss_series)))
    win = csum[window:] - csum[:-window]
    total = csum[-1]
    if total <= 0:
        return 0.0
    # Non-overlapping windows to avoid double counting.
    strided = win[::window]
    k = max(int(np.ceil(strided.size * top_fraction)), 1)
    worst = np.sort(strided)[::-1][:k]
    return float(min(worst.sum() / total, 1.0))


def run(
    trace=None,
    n_sources=(1, 20),
    target_loss=1e-3,
    tmax_ms=2.0,
    window=1000,
    n_frames=60_000,
    seed=17,
):
    """Windowed loss processes at matched overall loss rate.

    Returns per N: the window-center positions (minutes), the running
    loss rates, the tuned capacity, the realized overall loss and the
    loss concentration.  The paper's claim -- equal ``P_l`` but very
    different loss processes -- corresponds to the N=1 concentration
    exceeding the N=20 one.
    """
    if trace is None:
        trace = reference_trace()
    if trace.n_frames > n_frames:
        trace = trace.segment(0, n_frames)
    series = trace.frame_bytes
    slot_seconds = 1.0 / trace.frame_rate
    rng = np.random.default_rng(seed)
    tmax_s = tmax_ms / 1000.0
    out = {}
    min_separation = min(1000, series.size // (2 * max(int(n) for n in n_sources)))
    for n in n_sources:
        n = int(n)
        arrival_sets = lagged_arrival_sets(series, n, 3, min_separation, rng)

        # The buffer depends on the capacity (Q = T_max * N * C), so
        # wrap the capacity search in a small fixed-point: start from a
        # generous buffer guess and iterate once.
        c_total = float(np.mean(arrival_sets[0])) * 1.2
        for _ in range(3):
            q = tmax_s * c_total / slot_seconds
            c_total = required_capacity(arrival_sets, q, target_loss, rel_tol=1e-4)
        q = tmax_s * c_total / slot_seconds
        arrivals = arrival_sets[0]
        result = simulate_queue(arrivals, c_total, q, return_series=True)
        centers, rates = windowed_loss_rate(result.loss_series, arrivals, window)
        out[n] = {
            "time_minutes": centers / trace.frame_rate / 60.0,
            "loss_rate": rates,
            "capacity_per_source": c_total / n,
            "buffer_bytes": q,
            "overall_loss": result.loss_rate,
            "concentration": _loss_concentration(result.loss_series, window=window),
        }
    return {
        "processes": out,
        "target_loss": target_loss,
        "window": window,
        "tmax_ms": tmax_ms,
        "n_sources": tuple(int(n) for n in n_sources),
    }
