"""Fig. 13: the system modeled in the trace-driven simulation.

Fig. 13 is an architecture diagram -- N VBR sources feeding one FIFO
queue with buffer ``Q`` served at capacity ``C`` -- rather than a data
plot.  This module "reproduces" it by *assembling* that exact system
from the library's components and verifying its composition laws end
to end, so the figure's content (what is connected to what, and what
is measured where) is executable:

- the multiplexer output equals the sum of the shifted sources;
- offered bytes = served + lost + final backlog (flow conservation);
- the measured ``P_l`` equals lost/offered;
- at ``C`` above the aggregate peak the system is lossless, at ``C``
  below the aggregate mean it saturates.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.data import reference_trace
from repro.simulation.multiplex import multiplex_series, random_lags
from repro.simulation.queue import simulate_queue

__all__ = ["run"]


def run(trace=None, n_sources=5, n_frames=20_000, seed=5):
    """Assemble Fig. 13's system and verify its composition laws.

    Returns a dict describing each stage (sources, multiplexer, queue,
    measurement) plus the conservation checks; raises ``AssertionError``
    if any structural law fails (it cannot, unless the library is
    broken -- that is the point).
    """
    if trace is None:
        trace = reference_trace()
    if trace.n_frames > n_frames:
        trace = trace.segment(0, n_frames)
    x = trace.frame_bytes
    slot_seconds = 1.0 / trace.frame_rate
    rng = np.random.default_rng(seed)
    min_sep = min(1000, x.size // (2 * n_sources))
    lags = random_lags(n_sources, x.size, min_separation=min_sep, rng=rng)

    # Stage 1-2: N sources -> multiplexer.
    arrivals = multiplex_series(x, lags)
    direct_sum = np.zeros_like(x)
    for lag in lags:
        direct_sum += np.roll(x, -int(lag) % x.size)
    assert np.allclose(arrivals, direct_sum), "multiplexer is not a plain superposition"

    # Stage 3: the finite-buffer FIFO queue.
    capacity = float(np.mean(arrivals)) * 1.2
    buffer_bytes = 10.0 / 1000.0 * capacity / slot_seconds
    result = simulate_queue(arrivals, capacity, buffer_bytes, return_series=True)

    # Stage 4: measurement + conservation laws.
    offered = float(arrivals.sum())
    served = offered - result.lost_bytes - result.final_backlog
    assert served <= capacity * arrivals.size + 1e-6, "served more than the server can"
    assert abs(result.loss_series.sum() - result.lost_bytes) < 1e-6
    assert result.loss_rate == (result.lost_bytes / offered if offered else 0.0)

    # Sanity anchors: lossless above aggregate peak, saturated below mean.
    lossless = simulate_queue(arrivals, float(arrivals.max()), 0.0)
    assert lossless.lost_bytes == 0.0
    overloaded = simulate_queue(arrivals, float(np.mean(arrivals)) * 0.5, buffer_bytes)
    assert overloaded.loss_rate > 0.4

    return {
        "n_sources": int(n_sources),
        "lags": lags,
        "capacity_bytes_per_slot": capacity,
        "capacity_mbps": capacity * 8.0 / slot_seconds / 1e6,
        "buffer_bytes": buffer_bytes,
        "offered_bytes": offered,
        "served_bytes": served,
        "lost_bytes": result.lost_bytes,
        "loss_rate": result.loss_rate,
        "peak_backlog": result.peak_backlog,
        "conservation_ok": True,
    }
