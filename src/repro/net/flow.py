"""Flows: traffic sources walking a path, and their end-to-end stats.

A :class:`Flow` binds a 1-D array of per-slot byte volumes to a path of
node names; :func:`repro.net.topology.build_network` makes that array
from a spec's explicit series, the trace synthesizer or a chunked fGn
source.  A run takes the volumes that fall before the horizon
(:meth:`Flow.emissions`).  :class:`FlowStats` holds the end-to-end view:
offered / delivered / lost volume and byte-weighted emission and
delivery times, whose difference is the fluid mean end-to-end latency.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_nonnegative_int
from repro.net.sched import seqsum

__all__ = ["Flow", "FlowStats"]


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
    volumes:
        1-D array of per-slot byte volumes, emitted from ``start_slot``
        on.
    priority:
        Class priority for :class:`~repro.net.sched.PriorityDiscipline`
        ports on the path (0 = highest).
    weight:
        Class weight for :class:`~repro.net.sched.WFQDiscipline` ports.
    start_slot:
        First slot at which the source emits.
    """

    def __init__(self, name, path, volumes, priority=0, weight=1.0, start_slot=0):
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
        volumes = np.asarray(volumes, dtype=np.float64)
        if volumes.ndim != 1:
            raise ValueError(
                f"flow {name!r} volumes must be one-dimensional, got shape {volumes.shape}"
            )
        self._volumes = volumes

    def emissions(self, slots):
        """The volumes this flow emits before the ``slots`` horizon.

        Returns a float64 array of per-slot volumes from ``start_slot``
        on; it is shorter than the rest of the horizon when the source
        runs dry first.
        """
        volumes = self._volumes[: max(slots - self.start_slot, 0)]
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
