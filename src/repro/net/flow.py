"""Flows: traffic sources walking a path, and their end-to-end stats.

A :class:`Flow` binds a per-slot byte source to a path of node names.
Sources are plain iterators of floats so anything chunked plugs in
without materializing the run:

- :func:`array_slots` replays an in-memory series (trace-driven runs);
- :func:`chunk_slots` drains a :class:`repro.stream.sources.ChunkSource`
  (fGn / fARIMA model traffic) chunk by chunk in O(chunk) memory;
- :func:`stream_slots` drains any iterable of numpy chunks -- e.g. a
  fully assembled :class:`repro.stream.pipeline.Stream` with marginal
  transforms attached -- again in constant memory.

A run drains each source once, up to the horizon
(:meth:`Flow.emissions`).  :class:`FlowStats` holds the end-to-end
view: offered / delivered / lost volume and byte-weighted emission and
delivery times, whose difference is the fluid mean end-to-end latency.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro._validation import (
    as_1d_float_array,
    require_nonnegative_int,
    require_positive_int,
)
from repro.net.sched import seqsum

__all__ = ["Flow", "FlowStats", "array_slots", "chunk_slots", "stream_slots"]


def array_slots(values):
    """Per-slot volumes from an in-memory series (validated, non-negative)."""
    arr = as_1d_float_array(values, "values")
    if np.any(arr < 0):
        raise ValueError("values must be non-negative")
    return iter(arr.tolist())


def stream_slots(chunks, clip_negative=True):
    """Per-slot volumes from any iterable of numpy chunks.

    Model-generated traffic can dip below zero in the Gaussian domain;
    ``clip_negative`` floors each slot at zero (the convention the
    paper's generator uses when a marginal transform is not applied).
    """
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=float)
        if clip_negative:
            arr = np.maximum(arr, 0.0)
        yield from arr.tolist()


def chunk_slots(source, n, chunk_size=8_192, rng=None, clip_negative=True):
    """Per-slot volumes from a :class:`~repro.stream.sources.ChunkSource`.

    Drains ``source.chunks(n, chunk_size, rng)`` lazily -- memory stays
    O(chunk_size) however long the run is.
    """
    n = require_positive_int(n, "n")
    chunk_size = require_positive_int(chunk_size, "chunk_size")
    return stream_slots(source.chunks(n, chunk_size, rng=rng),
                        clip_negative=clip_negative)


class FlowStats:
    """End-to-end accounting for one flow, filled in by :meth:`record`."""

    def __init__(self):
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.lost_bytes = 0.0
        self.slots_emitted = 0
        self.first_delivery_slot = None
        self.last_delivery_slot = None
        self._offered_time_sum = 0.0
        self._delivered_time_sum = 0.0

    def record(self, start_slot, emitted, delivered, losses):
        """Account a finished run from its per-slot arrays.

        ``emitted`` holds the volumes sent from ``start_slot`` on,
        ``delivered`` the volume reaching the destination in each slot
        of the horizon, and ``losses`` one row of per-slot drops per
        hop, hops in link order.  Totals add in slot order -- losses
        in (slot, link) order -- as a per-slot accumulator would.
        """
        sent_at = np.arange(start_slot, start_slot + emitted.size, dtype=float)
        arrived = np.flatnonzero(delivered > 0.0)
        self.slots_emitted = emitted.size
        self.offered_bytes = seqsum(emitted)
        self._offered_time_sum = seqsum(sent_at * emitted)
        self.delivered_bytes = seqsum(delivered)
        self._delivered_time_sum = seqsum(np.arange(delivered.size) * delivered)
        if arrived.size:
            self.first_delivery_slot = float(arrived[0])
            self.last_delivery_slot = float(arrived[-1])
        self.lost_bytes = seqsum(np.asarray(losses).T)

    @property
    def loss_rate(self):
        """Lost-to-offered byte ratio across every hop of the path."""
        return self.lost_bytes / self.offered_bytes if self.offered_bytes > 0 else 0.0

    @property
    def delivered_fraction(self):
        """Share of offered bytes that reached the destination."""
        return (
            self.delivered_bytes / self.offered_bytes
            if self.offered_bytes > 0 else 0.0
        )

    @property
    def mean_latency_slots(self):
        """Fluid mean end-to-end latency in slots.

        Byte-weighted mean delivery time minus byte-weighted mean
        emission time.  Exact when nothing is lost; with loss it is the
        fluid approximation (lost bytes leave the emission average but
        never reach the delivery average).
        """
        if self.delivered_bytes <= 0.0 or self.offered_bytes <= 0.0:
            return 0.0
        return (
            self._delivered_time_sum / self.delivered_bytes
            - self._offered_time_sum / self.offered_bytes
        )

    def summary(self):
        """Per-flow metrics as a plain JSON-able dict."""
        return {
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "lost_bytes": self.lost_bytes,
            "loss_rate": self.loss_rate,
            "delivered_fraction": self.delivered_fraction,
            "mean_latency_slots": self.mean_latency_slots,
            "slots_emitted": self.slots_emitted,
            "first_delivery_slot": self.first_delivery_slot,
            "last_delivery_slot": self.last_delivery_slot,
        }


class Flow:
    """One traffic source walking ``path`` through the topology.

    Parameters
    ----------
    name:
        Unique flow identifier (the class key at every port it crosses).
    path:
        Node names from ingress to destination; queueing happens at the
        output port of every node except the last.
    slots:
        Iterator of per-slot byte volumes (see the module helpers).
    priority:
        Class priority for :class:`~repro.net.sched.PriorityDiscipline`
        ports on the path (0 = highest).
    weight:
        Class weight for :class:`~repro.net.sched.WFQDiscipline` ports.
    start_slot:
        First slot at which the source emits.
    """

    def __init__(self, name, path, slots, priority=0, weight=1.0, start_slot=0):
        if not name:
            raise ValueError("flow name must be non-empty")
        path = tuple(path)
        if len(path) < 2:
            raise ValueError(
                f"flow {name!r} path must visit at least two nodes, got {path!r}"
            )
        if len(set(path)) != len(path):
            raise ValueError(f"flow {name!r} path revisits a node: {path!r}")
        self.name = name
        self.path = path
        self.priority = int(priority)
        self.weight = float(weight)
        self.start_slot = require_nonnegative_int(start_slot, "start_slot")
        self.stats = FlowStats()
        self._slots = iter(slots)

    def emissions(self, slots):
        """Drain the volumes this flow emits before the ``slots`` horizon.

        Returns a float64 array of per-slot volumes from ``start_slot``
        on; it is shorter than the rest of the horizon when the source
        runs dry first.
        """
        n = max(slots - self.start_slot, 0)
        volumes = np.fromiter(islice(self._slots, n), dtype=float)
        bad = (volumes < 0.0) | ~np.isfinite(volumes)
        if bad.any():
            volume = float(volumes[bad.argmax()])
            raise ValueError(
                f"flow {self.name!r} emitted an invalid volume {volume!r}"
            )
        return volumes

    def __repr__(self):
        return (
            f"Flow({self.name!r}, path={'->'.join(self.path)}, "
            f"priority={self.priority}, weight={self.weight:g})"
        )
