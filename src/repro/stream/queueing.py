"""Online finite-buffer FIFO queue simulation over chunked arrivals.

:class:`StreamingQueue` folds the recursion of
:func:`repro.simulation.queue.simulate_queue` over chunks:

    ``lost_t = max(0, b_{t-1} + a_t - c - Q)``
    ``b_t    = min(max(b_{t-1} + a_t - c, 0), Q)``

The recursion is a per-slot scalar update whose state is four floats
(backlog, lost, peak, total), so chunking cannot change a single
operation: the streamed statistics are *bit-for-bit* equal to the
batch simulator for any chunk partition -- the property tests assert
exact equality over random traces and chunkings.  Memory is O(chunk),
so the queue can consume an arbitrarily long arrival stream.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_nonnegative, require_positive
from repro.obs import metrics
from repro.simulation.queue import QueueResult
from repro.simulation.slotfluid import run_slots

__all__ = ["StreamingQueue"]


def _queue_metrics(queue_label):
    reg = metrics.registry()
    labels = {"queue": queue_label}
    return (
        reg.gauge(
            "repro_queue_backlog_bytes",
            help="Queue backlog after the most recent chunk (min/max track the chunk grid)",
            unit="bytes", labels=labels,
        ),
        reg.counter(
            "repro_queue_slots_total",
            help="Arrival slots folded through the queue recursion",
            unit="slots", labels=labels,
        ),
        reg.counter(
            "repro_queue_lost_bytes_total",
            help="Bytes dropped at the finite buffer",
            unit="bytes", labels=labels,
        ),
    )


class StreamingQueue:
    """Finite-buffer FIFO queue folded over arrival chunks.

    Parameters
    ----------
    capacity_per_slot:
        Service capacity in bytes per slot.
    buffer_bytes:
        Buffer size ``Q`` in bytes (0 gives a bufferless multiplexer).

    Feed chunks with :meth:`push` (or via ``Stream.observe`` /
    ``Stream.drain``) and read the folded statistics with
    :meth:`result` at any point -- the result reflects the stream so
    far, exactly as if the batch simulator had been run on the
    concatenation of every pushed chunk.
    """

    def __init__(self, capacity_per_slot, buffer_bytes):
        self.capacity_per_slot = require_positive(capacity_per_slot, "capacity_per_slot")
        self.buffer_bytes = require_nonnegative(buffer_bytes, "buffer_bytes")
        self._backlog = 0.0
        self._lost = 0.0
        self._peak = 0.0
        self._total = 0.0
        self._slots = 0
        self._backlog_gauge, self._slots_counter, self._lost_counter = (
            _queue_metrics("streaming")
        )

    @property
    def slots_seen(self):
        """Number of arrival slots consumed so far."""
        return self._slots

    def push(self, chunk):
        """Fold one chunk of arrivals; returns bytes lost in this chunk."""
        a = np.asarray(chunk, dtype=float)
        if a.ndim != 1:
            raise ValueError(f"chunk must be one-dimensional, got shape {a.shape}")
        if np.any(a < 0):
            raise ValueError("arrivals must be non-negative")
        lost_before = self._lost
        # The shared recursion (repro.simulation.slotfluid) resumed
        # from this queue's folded state -- identical arithmetic to
        # simulate_queue's batch loop for any chunk partition.
        backlog, lost, peak, total = run_slots(
            a,
            self.capacity_per_slot,
            self.buffer_bytes,
            state=(self._backlog, self._lost, self._peak, self._total),
        )
        self._backlog = backlog
        self._lost = lost
        self._peak = peak
        self._total = total
        self._slots += a.size
        self._backlog_gauge.set(backlog)
        self._slots_counter.inc(a.size)
        self._lost_counter.inc(lost - lost_before)
        return lost - lost_before

    def result(self):
        """The folded statistics as a :class:`~repro.simulation.queue.QueueResult`."""
        return QueueResult(
            capacity_per_slot=self.capacity_per_slot,
            buffer_bytes=self.buffer_bytes,
            total_bytes=self._total,
            lost_bytes=self._lost,
            final_backlog=self._backlog,
            peak_backlog=self._peak,
        )

    # Stream.observe / Stream.drain duck-type on update(); push is the
    # queueing-flavored alias.
    update = push

    def __repr__(self):
        return (
            f"StreamingQueue(capacity_per_slot={self.capacity_per_slot:.6g}, "
            f"buffer_bytes={self.buffer_bytes:.6g}, slots_seen={self._slots})"
        )
