"""Finite-buffer FIFO queue simulation.

The queue is simulated at the granularity of the trace's time slots
(frame or slice) with fluid arrivals: during slot ``t`` the source
deposits ``a_t`` bytes, the server drains ``c`` bytes, and whatever
exceeds the buffer ``Q`` is lost:

    ``lost_t = max(0, b_{t-1} + a_t - c - Q)``
    ``b_t    = min(max(b_{t-1} + a_t - c, 0), Q)``

The paper verifies (in the long version) that uniform versus random
cell spacing inside a slot barely affects the results, so the fluid
model at slice granularity preserves the Q-C behaviour.

For the *zero-loss* requirement an exact O(n) analysis is available:
the buffer never overflows iff the maximum drawdown of the net-input
random walk is at most ``Q`` (:func:`max_backlog`), which turns the
zero-loss capacity search into a bisection on one compiled pass per
step (:func:`repro.simulation.slotfluid.run_drawdown`, equal bit for
bit to the numpy expression it replaced).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_1d_float_array, require_nonnegative, require_positive
from repro.obs import metrics, trace
from repro.simulation.slotfluid import run_drawdown, run_slots

__all__ = ["QueueResult", "simulate_queue", "max_backlog", "smallest_feasible",
           "zero_loss_capacity"]

_BATCH_LABELS = {"queue": "batch"}

_SLOTS = metrics.registry().counter(
    "repro_queue_slots_total",
    help="Arrival slots folded through the queue recursion",
    unit="slots", labels=_BATCH_LABELS,
)

_LOST = metrics.registry().counter(
    "repro_queue_lost_bytes_total",
    help="Bytes dropped at the finite buffer",
    unit="bytes", labels=_BATCH_LABELS,
)


@dataclass(frozen=True)
class QueueResult:
    """Outcome of one finite-buffer FIFO simulation."""

    capacity_per_slot: float
    """Service capacity in bytes per slot."""

    buffer_bytes: float
    """Buffer size ``Q`` in bytes."""

    total_bytes: float
    """Total bytes offered by the sources."""

    lost_bytes: float
    """Total bytes lost to buffer overflow."""

    final_backlog: float
    """Bytes left in the buffer at the end of the run."""

    peak_backlog: float
    """Largest backlog observed (capped at ``Q``)."""

    loss_series: np.ndarray = field(repr=False, default=None)
    """Per-slot lost bytes (only when requested)."""

    @property
    def loss_rate(self):
        """Overall byte loss rate ``P_l``."""
        if self.total_bytes <= 0:
            return 0.0
        return self.lost_bytes / self.total_bytes


def simulate_queue(arrivals, capacity_per_slot, buffer_bytes, return_series=False):
    """Run the finite-buffer FIFO queue over one arrival series.

    Parameters
    ----------
    arrivals:
        Bytes arriving in each slot (aggregate over all sources).
    capacity_per_slot:
        Service capacity in bytes per slot.
    buffer_bytes:
        Buffer size ``Q`` in bytes (0 gives a bufferless multiplexer).
    return_series:
        Also record per-slot lost bytes (needed for the worst-errored-
        second and windowed-loss metrics).

    Returns a :class:`QueueResult`.
    """
    a = as_1d_float_array(arrivals, "arrivals")
    if np.any(a < 0):
        raise ValueError("arrivals must be non-negative")
    c = require_positive(capacity_per_slot, "capacity_per_slot")
    q = require_nonnegative(buffer_bytes, "buffer_bytes")
    loss_series = np.zeros(a.size) if return_series else None
    # The recursion itself lives in repro.simulation.slotfluid, shared
    # bit-for-bit with the streaming fold (repro.stream.queueing) and
    # the per-hop disciplines of repro.net.
    with trace.span("queue.simulate", n=a.size, capacity=c, buffer=q):
        backlog, lost, peak, total = run_slots(a, c, q, loss_series=loss_series)
    _SLOTS.inc(a.size)
    _LOST.inc(lost)
    return QueueResult(
        capacity_per_slot=c,
        buffer_bytes=q,
        total_bytes=total,
        lost_bytes=lost,
        final_backlog=backlog,
        peak_backlog=peak,
        loss_series=loss_series,
    )


def max_backlog(arrivals, capacity_per_slot):
    """Largest backlog of the *infinite*-buffer queue (compiled O(n)).

    Equals the maximum drawdown of the net-input walk
    ``S_t = sum_{u<=t} (a_u - c)``: ``max_t (S_t - min(0, min_{u<=t} S_u))``.
    The finite-buffer queue with ``Q >= max_backlog`` loses nothing, so
    this is the exact zero-loss buffer requirement at capacity ``c``.
    """
    a = as_1d_float_array(arrivals, "arrivals")
    c = require_positive(capacity_per_slot, "capacity_per_slot")
    return run_drawdown(a, c)


def smallest_feasible(feasible, lo, hi, rel_tol, scale=None):
    """Smallest point of ``(lo, hi]`` a monotone ``feasible`` accepts.

    The one loop of every buffer and capacity search: a feasible
    midpoint becomes ``hi``, an infeasible one ``lo``, until ``hi - lo``
    is at most ``rel_tol * scale`` (buffer searches: a fixed width) or,
    without ``scale``, ``rel_tol * hi`` (capacity searches).  Returns
    ``hi``; checking ``lo`` and growing ``hi`` stay with the caller.
    """
    while (hi - lo) > rel_tol * (hi if scale is None else scale):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def zero_loss_capacity(arrivals, buffer_bytes, rel_tol=1e-4):
    """Smallest capacity (bytes/slot) with zero loss at buffer ``Q``.

    Bisection on :func:`max_backlog`, which is monotone non-increasing
    in the capacity.  The search runs between the mean rate (below
    which the queue is unstable) and the peak slot arrival: at
    ``c = max(a)`` every step ``a_t - c <= 0``, so the walk never rises
    and the drawdown is exactly 0.  ``arrivals`` is validated once; each
    step is one :func:`~repro.simulation.slotfluid.run_drawdown` pass.
    """
    a = np.ascontiguousarray(as_1d_float_array(arrivals, "arrivals"))
    q = require_nonnegative(buffer_bytes, "buffer_bytes")
    lo = float(np.mean(a))
    hi = float(np.max(a))
    if lo <= 0:
        raise ValueError("arrivals must have positive mean")
    steps = []

    def feasible(c):
        steps.append(c)
        return run_drawdown(a, c) <= q

    with trace.span("queue.zero_loss_search", n=a.size) as span:
        hi = lo if feasible(lo) else smallest_feasible(feasible, lo, hi, rel_tol)
        span.set(steps=len(steps))
    return hi
