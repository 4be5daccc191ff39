"""Nodes and their output ports (the queues of the network).

A :class:`Node` owns one finite-buffer output :class:`Port` per egress
link.  The port is where a hop's queueing happens: its discipline
(:mod:`repro.net.sched`) serves the per-slot arrivals of every flow
crossing it over the whole horizon at once, and the served fluid is
handed to the link.  Each port then reports its own per-hop
statistics -- served/lost/offered volume, backlog mean and peak, the
fluid queueing-delay mean and jitter (``backlog / capacity`` after
each slot) -- plus per-flow accounting, and keeps the backlog /
departure / loss series of its run for trajectory-level tests and the
Hurst-across-hops experiment.
"""

from __future__ import annotations

import math

import numpy as np

from repro._validation import require_nonnegative
from repro.net.sched import flow_sum, make_discipline, seqsum

__all__ = ["Node", "Port"]


class Port:
    """One output queue: a discipline plus per-hop accounting."""

    def __init__(self, node, link, discipline_name, buffer_bytes):
        self.node = node
        self.link = link
        self.name = link.name
        self.discipline_name = discipline_name
        self.discipline = make_discipline(
            discipline_name, link.capacity_per_slot, buffer_bytes
        )
        self.result = None
        self._stats = None

    def run(self, arrivals):
        """Serve the horizon; returns the discipline's :class:`~repro.net.sched.RunResult`.

        ``arrivals`` has one row of per-slot volumes per registered
        flow, in registration order.  The result is kept as
        ``self.result``; every statistic of :meth:`summary` adds its
        per-slot terms in slot order, as a per-slot accumulator would.
        """
        result = self.discipline.run(arrivals)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        capacity = self.link.capacity_per_slot
        slots = result.backlog.size
        delay = result.backlog / capacity
        mean_delay = seqsum(delay) / slots
        var = seqsum(delay * delay) / slots - mean_delay * mean_delay
        offered = seqsum(flow_sum(arrivals))
        served = seqsum(result.served_total)
        lost = seqsum(result.lost_total)
        self.result = result
        self._stats = {
            "slots": slots,
            "offered_bytes": offered,
            "served_bytes": served,
            "lost_bytes": lost,
            "loss_rate": lost / offered if offered > 0 else 0.0,
            "final_backlog": self.discipline.backlog,
            "peak_backlog": float(np.max(result.backlog, initial=0.0)),
            "mean_backlog": seqsum(result.backlog) / slots,
            "mean_delay_slots": mean_delay,
            "delay_jitter_slots": math.sqrt(var) if var > 0.0 else 0.0,
            "utilization": served / (capacity * slots),
            "flows": {
                flow: {
                    "offered_bytes": seqsum(arrivals[i]),
                    "served_bytes": seqsum(result.served[i]),
                    "lost_bytes": seqsum(result.lost[i]),
                }
                for i, flow in enumerate(self.discipline.flows)
            },
        }
        return result

    def summary(self):
        """Per-hop metrics of the run as a plain JSON-able dict."""
        return {
            "port": self.name,
            "discipline": self.discipline_name,
            "capacity_per_slot": self.link.capacity_per_slot,
            "buffer_bytes": self.discipline.buffer_bytes,
            **self._stats,
        }

    def __repr__(self):
        return (
            f"Port({self.name}, {self.discipline_name}, "
            f"c={self.link.capacity_per_slot:.6g}, "
            f"q={self.discipline.buffer_bytes:.6g})"
        )


class Node:
    """A switching element: per-egress-link finite-buffer output ports."""

    def __init__(self, name, buffer_bytes, discipline="fifo"):
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.buffer_bytes = require_nonnegative(buffer_bytes, "buffer_bytes")
        self.discipline_name = discipline
        self.ports = {}

    def attach(self, link):
        """Create the output port for an egress ``link``; returns it."""
        if link.src != self.name:
            raise ValueError(
                f"link {link.name} does not originate at node {self.name!r}"
            )
        if link.dst in self.ports:
            raise ValueError(f"node {self.name!r} already has a port to {link.dst!r}")
        port = Port(self.name, link, self.discipline_name, self.buffer_bytes)
        self.ports[link.dst] = port
        return port

    def port_to(self, dst):
        """The output port toward neighbour ``dst`` (raises if absent)."""
        try:
            return self.ports[dst]
        except KeyError:
            raise KeyError(
                f"node {self.name!r} has no link toward {dst!r}"
            ) from None

    def __repr__(self):
        return (
            f"Node({self.name!r}, buffer={self.buffer_bytes:.6g}, "
            f"discipline={self.discipline_name!r}, ports={list(self.ports)})"
        )
