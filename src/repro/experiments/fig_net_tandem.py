"""Network extension: Q-C curves through a multi-hop tandem.

The paper sizes a *single* finite buffer for self-similar VBR traffic
(Fig. 14).  This experiment carries the same question through 1-, 2-
and 3-hop tandem paths simulated with :mod:`repro.net`: what shared
per-hop buffer ``Q`` keeps the *end-to-end* loss within target, and
how does the resulting delay bound ``T_max = Q/C`` compare with the
paper's single-queue answer?

Each downstream link is tapered to :data:`TAPER` times the capacity of the
one before it, so later hops are genuine bottlenecks (an untapered
tandem is uninteresting: the first queue shapes the flow to its own
capacity and downstream hops never drop).  Findings checkable from the
returned data:

- the 1-hop curve *is* the paper's single queue: its zero-loss buffer
  matches :func:`repro.simulation.queue.max_backlog` on the same
  series (``single_queue_buffer_bytes`` is included for the
  comparison -- an independent vectorized implementation, so agreement
  is to summation order, ~1e-10 relative; the *bit-exact* anchor
  against :func:`~repro.simulation.queue.simulate_queue`'s sequential
  recursion is pinned by a tier-1 test);
- more hops cost more buffer at equal capacity -- the tapered
  bottleneck compounds -- and the knee structure of the single-queue
  curves survives end to end;
- loosening the loss target collapses the buffer requirement on every
  path length, exactly as in Fig. 14.

Zero-loss buffers are exact (the peak per-hop backlog of an
unconstrained run); lossy targets use bisection on the shared ``Q``,
treating end-to-end loss as monotone in ``Q`` (it is for any one
queue; across a tandem upstream buffering feeds the next bottleneck,
making this an -- excellent -- approximation rather than a theorem).
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive_int
from repro.experiments.data import reference_trace
from repro.net import run_topology
from repro.simulation.queue import max_backlog, smallest_feasible

__all__ = ["run", "tandem_spec", "required_tandem_buffer"]

_NODE_NAMES = "abcdefgh"


def tandem_spec(series, capacities, buffer_bytes, record_series=False):
    """Declarative spec for one flow through a tandem of queues.

    ``capacities[i]`` is the service rate of hop ``i``; every hop gets
    the same ``buffer_bytes``.  The path has ``len(capacities)``
    queueing hops and ``len(capacities) + 1`` nodes.
    """
    hops = len(capacities)
    if not 1 <= hops < len(_NODE_NAMES):
        raise ValueError(f"hops must be in [1, {len(_NODE_NAMES) - 1}], got {hops}")
    names = list(_NODE_NAMES[: hops + 1])
    return {
        "slots": len(series),
        "nodes": [{"name": n, "buffer_bytes": buffer_bytes} for n in names],
        "links": [
            {"src": names[i], "dst": names[i + 1], "capacity_per_slot": float(c)}
            for i, c in enumerate(capacities)
        ],
        "flows": [
            {
                "name": "video",
                "path": names,
                "source": {"kind": "array", "values": series},
            }
        ],
        "record_series": record_series,
    }


def _end_to_end_loss(series, capacities, buffer_bytes):
    result = run_topology(tandem_spec(series, capacities, buffer_bytes))
    return result["flows"]["video"]["loss_rate"]


def required_tandem_buffer(series, capacities, target_loss, rel_tol=5e-3):
    """Smallest shared per-hop buffer meeting the end-to-end loss target.

    For ``target_loss == 0`` the answer is exact: the largest per-hop
    peak backlog of an unconstrained run (any smaller shared buffer
    makes the binding hop drop).  Otherwise bisection on ``Q``.
    """
    target_loss = float(target_loss)
    if target_loss < 0:
        raise ValueError(f"target_loss must be >= 0, got {target_loss}")
    unconstrained = run_topology(
        tandem_spec(series, capacities, float(np.sum(series)) + 1.0)
    )
    q_max = max(
        port["peak_backlog"] for port in unconstrained["ports"].values()
    )
    if target_loss == 0.0 or q_max == 0.0:
        return q_max

    def feasible(q):
        return _end_to_end_loss(series, capacities, q) <= target_loss

    if feasible(0.0):
        return 0.0
    return smallest_feasible(feasible, 0.0, q_max, rel_tol, scale=max(q_max, 1.0))


HOPS = (1, 2, 3)
"""Tandem lengths swept (number of queueing hops)."""

TARGETS = (0.0, 1e-2)
"""End-to-end loss targets (0 = lossless)."""

TAPER = 0.95
"""Capacity ratio of each hop to the one before it (< 1 makes
downstream hops bottlenecks)."""


def run(trace=None, n_points=5, n_frames=4_000, unit="frame"):
    """Compute end-to-end Q-C curves for each tandem length.

    Parameters
    ----------
    trace:
        Source trace; defaults to the reference trace truncated to
        ``n_frames``.
    n_points:
        Ingress-capacity grid size per curve, from 1.05 times the
        series mean to its peak.

    Returns ``{"curves": {(hops, target): {...arrays...}},
    "single_queue_buffer_bytes": ..., ...}`` where each curve holds the
    ingress capacity grid, the required shared buffer and the per-hop
    delay bound ``T_max = Q / C_min`` in ms.
    """
    if trace is None:
        trace = reference_trace()
    n_frames = require_positive_int(n_frames, "n_frames")
    if trace.n_frames > n_frames:
        trace = trace.segment(0, n_frames)
    series = trace.series(unit)
    slot_seconds = trace.time_unit_ms(unit) / 1000.0
    mean = float(np.mean(series))
    peak = float(np.max(series))
    capacities = np.linspace(1.05 * mean, peak,
                             require_positive_int(n_points, "n_points"))

    curves = {}
    for h in HOPS:
        for target in TARGETS:
            buffers = np.array([
                required_tandem_buffer(
                    series,
                    [c * TAPER**i for i in range(h)],
                    target,
                )
                for c in capacities
            ])
            bottleneck = capacities * TAPER ** (h - 1)
            curves[(h, float(target))] = {
                "capacity_per_slot": capacities.copy(),
                "capacity_mbps": capacities * 8.0 / slot_seconds / 1e6,
                "buffer_bytes": buffers,
                "tmax_ms": buffers / bottleneck * slot_seconds * 1e3,
            }

    # The 1-hop lossless anchor against the paper's single queue.
    single_queue = np.array([max_backlog(series, float(c)) for c in capacities])
    return {
        "curves": curves,
        "single_queue_buffer_bytes": single_queue,
        "hops": HOPS,
        "targets": TARGETS,
        "taper": TAPER,
        "n_frames": trace.n_frames,
        "unit": unit,
        "mean_bytes_per_slot": mean,
        "peak_bytes_per_slot": peak,
    }
