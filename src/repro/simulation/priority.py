"""Two-priority finite-buffer queue for layered video transport.

Implements the "layered coding with a priority queueing discipline"
referenced in Section 5.3: base-layer (high-priority) traffic is served
first, and under buffer pressure enhancement-layer (low-priority) bytes
are pushed out before any base-layer byte is dropped.

Per slot ``t``, with high/low arrivals ``(h_t, l_t)``, capacity ``c``
and shared buffer ``Q``:

1. arrivals join their backlogs;
2. the server drains up to ``c`` bytes, high priority first;
3. if the remaining total backlog exceeds ``Q``, low-priority bytes
   are dropped first (pushout), then high-priority bytes, each drop at
   most what the class holds.

This is :func:`repro.simulation.slotfluid.fold_priority` with the high
layer registered first: the same recursion every strict-priority port
of :mod:`repro.net` runs, so the result equals a two-flow
:class:`~repro.net.sched.PriorityDiscipline` port bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_1d_float_array, require_nonnegative, require_positive
from repro.simulation.slotfluid import fold_priority

__all__ = ["PriorityQueueResult", "simulate_priority_queue"]


@dataclass(frozen=True)
class PriorityQueueResult:
    """Outcome of one two-priority simulation."""

    capacity_per_slot: float
    """Service capacity in bytes per slot."""

    buffer_bytes: float
    """Shared buffer size in bytes."""

    high_offered: float
    """Total high-priority (base-layer) bytes offered."""

    low_offered: float
    """Total low-priority (enhancement) bytes offered."""

    high_lost: float
    """High-priority bytes dropped."""

    low_lost: float
    """Low-priority bytes dropped."""

    high_served: float = 0.0
    """High-priority bytes actually transmitted."""

    low_served: float = 0.0
    """Low-priority bytes actually transmitted."""

    high_final_backlog: float = 0.0
    """High-priority bytes still queued when the series ended."""

    low_final_backlog: float = 0.0
    """Low-priority bytes still queued when the series ended.

    Together these close the byte ledger per layer:
    ``offered == served + lost + final_backlog`` exactly for integer
    arrivals (and to float rounding otherwise) -- the conservation
    property the tier-1 tests pin.
    """

    high_loss_series: np.ndarray = field(repr=False, default=None)
    """Per-slot high-priority losses (when requested)."""

    low_loss_series: np.ndarray = field(repr=False, default=None)
    """Per-slot low-priority losses (when requested)."""

    @property
    def high_loss_rate(self):
        """Base-layer byte loss rate."""
        return self.high_lost / self.high_offered if self.high_offered > 0 else 0.0

    @property
    def low_loss_rate(self):
        """Enhancement-layer byte loss rate."""
        return self.low_lost / self.low_offered if self.low_offered > 0 else 0.0

    @property
    def overall_loss_rate(self):
        """Loss rate over both layers combined."""
        total = self.high_offered + self.low_offered
        return (self.high_lost + self.low_lost) / total if total > 0 else 0.0


def simulate_priority_queue(
    high_arrivals, low_arrivals, capacity_per_slot, buffer_bytes, return_series=False
):
    """Run the two-priority finite-buffer queue.

    ``high_arrivals`` and ``low_arrivals`` are equal-length series of
    bytes per slot.  Returns a :class:`PriorityQueueResult`.
    """
    h = as_1d_float_array(high_arrivals, "high_arrivals")
    low = as_1d_float_array(low_arrivals, "low_arrivals")
    if h.size != low.size:
        raise ValueError(
            f"high and low arrival series must have equal length, got {h.size} and {low.size}"
        )
    if np.any(h < 0) or np.any(low < 0):
        raise ValueError("arrivals must be non-negative")
    c = require_positive(capacity_per_slot, "capacity_per_slot")
    q = require_nonnegative(buffer_bytes, "buffer_bytes")
    served, lost, _, _, _, (backlog_hi, backlog_lo) = fold_priority(
        (h, low), c, q, priorities=(0, 1), backlog=(0.0, 0.0)
    )
    # Running totals add slot by slot, as an accumulator would.
    lost_hi, lost_lo = np.add.accumulate(lost, axis=1)[:, -1].tolist()
    served_hi, served_lo = np.add.accumulate(served, axis=1)[:, -1].tolist()
    return PriorityQueueResult(
        capacity_per_slot=c,
        buffer_bytes=q,
        high_offered=float(h.sum()),
        low_offered=float(low.sum()),
        high_lost=lost_hi,
        low_lost=lost_lo,
        high_served=served_hi,
        low_served=served_lo,
        high_final_backlog=backlog_hi,
        low_final_backlog=backlog_lo,
        high_loss_series=lost[0] if return_series else None,
        low_loss_series=lost[1] if return_series else None,
    )
