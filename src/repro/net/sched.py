"""Per-hop scheduling disciplines: FIFO, strict priority, weighted fair.

Every output port of a :class:`repro.net.node.Node` owns one
discipline instance.  :meth:`~Discipline.run` serves a whole horizon
at once: it takes the per-slot arrivals of every registered flow and
returns, per slot, what was served (forwarded downstream), what was
dropped and the backlog left behind -- per flow and in aggregate.

All three disciplines share the drop/backlog arithmetic of the
verified single-queue simulator through
:mod:`repro.simulation.slotfluid`:

- :class:`FIFODiscipline` *is* the slot-fluid recursion: one
  :func:`~repro.simulation.slotfluid.run_slots` fold of the aggregate
  arrivals, with the served volume derived slot by slot from the
  backlog series.  With a single flow its backlog and loss trajectory
  is bit-for-bit identical to
  :func:`repro.simulation.queue.simulate_queue` (a tier-1 invariant
  test pins this); with several flows service and loss are then
  apportioned by fluid share.
- :class:`PriorityDiscipline` serves classes in strict priority order
  and, under buffer pressure, pushes out low-priority fluid first --
  the multi-hop generalization of
  :func:`repro.simulation.priority.simulate_priority_queue`.  The drop
  volume comes from the shared :func:`~repro.simulation.slotfluid.clamp_backlog`.
- :class:`WFQDiscipline` splits capacity across backlogged classes in
  weight proportion with work-conserving redistribution (fluid
  weighted fair queueing) and drops overflow in proportion to each
  class's share of the buffer, again via the shared clamp.

Priority and WFQ are defined one slot at a time (:meth:`step`); their
:meth:`~Discipline.run` loops that step over the horizon.

Flows are registered once (:meth:`~Discipline.register`) before the
run; registration order is the row order of the arrival and result
arrays, the deterministic tie-break for equal priorities and the
summation order for aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_nonnegative, require_positive
from repro.simulation.slotfluid import clamp_backlog, run_slots

__all__ = [
    "StepResult",
    "RunResult",
    "Discipline",
    "FIFODiscipline",
    "PriorityDiscipline",
    "WFQDiscipline",
    "make_discipline",
    "DISCIPLINES",
    "flow_sum",
    "seqsum",
]


def seqsum(values):
    """Left-to-right float sum: the order a per-slot accumulator adds in.

    ``np.sum`` adds pairwise and rounds differently; every total the
    network reports is this sequential sum.
    """
    acc = np.add.accumulate(np.asarray(values, dtype=np.float64).ravel())
    return float(acc[-1]) if acc.size else 0.0


def flow_sum(arrivals):
    """Per-slot total of a (flows, slots) array, added in flow order."""
    if not len(arrivals):
        return np.zeros(arrivals.shape[1])
    return np.add.accumulate(arrivals, axis=0)[-1]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one slot at one port."""

    served: dict
    """Bytes forwarded downstream this slot, per flow."""

    lost: dict
    """Bytes dropped this slot, per flow."""

    backlog: float
    """Aggregate backlog left in the port buffer after the slot."""

    served_total: float
    """Aggregate bytes forwarded this slot."""

    lost_total: float
    """Aggregate bytes dropped this slot."""


@dataclass(frozen=True)
class RunResult:
    """Outcome of a whole run at one port, as per-slot arrays."""

    served: np.ndarray
    """Bytes forwarded downstream, shape (flows, slots)."""

    lost: np.ndarray
    """Bytes dropped, shape (flows, slots)."""

    backlog: np.ndarray
    """Aggregate backlog left after each slot."""

    served_total: np.ndarray
    """Aggregate bytes forwarded in each slot."""

    lost_total: np.ndarray
    """Aggregate bytes dropped in each slot."""


@dataclass
class _FlowClass:
    priority: int = 0
    weight: float = 1.0
    backlog: float = 0.0


class Discipline:
    """Base class: one finite-buffer queue drained at fixed capacity."""

    def __init__(self, capacity_per_slot, buffer_bytes):
        self.capacity_per_slot = require_positive(capacity_per_slot, "capacity_per_slot")
        self.buffer_bytes = require_nonnegative(buffer_bytes, "buffer_bytes")
        self._classes = {}

    def register(self, flow, priority=0, weight=1.0):
        """Declare a flow that will traverse this port.

        Must be called before the run starts; registration order is the
        deterministic ordering used for ties and summations.
        """
        if flow in self._classes:
            raise ValueError(f"flow {flow!r} is already registered at this port")
        self._classes[flow] = _FlowClass(
            priority=int(priority),
            weight=require_positive(weight, "weight"),
        )

    @property
    def flows(self):
        """Registered flow names, in registration order."""
        return list(self._classes)

    @property
    def backlog(self):
        """Aggregate bytes currently buffered."""
        return sum(cls.backlog for cls in self._classes.values())

    def run(self, arrivals):
        """Serve every slot of ``arrivals``; returns a :class:`RunResult`.

        ``arrivals`` has one row per registered flow, in registration
        order, and one column per slot.  This base version applies the
        subclass's one-slot :meth:`step` to each column in turn.
        """
        arrivals = self._check_rows(arrivals)
        flows = self.flows
        row = {flow: i for i, flow in enumerate(flows)}
        served = np.zeros_like(arrivals)
        lost = np.zeros_like(arrivals)
        n = arrivals.shape[1]
        backlog, served_total, lost_total = np.empty(n), np.empty(n), np.empty(n)
        for t, column in enumerate(arrivals.T.tolist()):
            result = self.step(dict(zip(flows, column)))
            for flow, volume in result.served.items():
                served[row[flow], t] = volume
            for flow, volume in result.lost.items():
                lost[row[flow], t] = volume
            backlog[t] = result.backlog
            served_total[t] = result.served_total
            lost_total[t] = result.lost_total
        return RunResult(served, lost, backlog, served_total, lost_total)

    def _check_rows(self, arrivals):
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.ndim != 2 or len(arrivals) != len(self._classes):
            raise ValueError(
                f"arrivals need one row per registered flow "
                f"({len(self._classes)}), got shape {arrivals.shape}"
            )
        return arrivals

    def _check_arrivals(self, arrivals):
        for flow in arrivals:
            if flow not in self._classes:
                raise KeyError(f"flow {flow!r} was never registered at this port")


class FIFODiscipline(Discipline):
    """Single shared queue: the slot-fluid recursion itself.

    The aggregate backlog is one
    :func:`~repro.simulation.slotfluid.run_slots` fold, the *exact*
    arithmetic of :func:`repro.simulation.queue.simulate_queue`; the
    served volume of each slot follows from the backlog before it as in
    :func:`~repro.simulation.slotfluid.slot_step`.  A single flow is
    forwarded and dropped the recursion's own volumes, so a one-flow
    one-hop topology reproduces the reference simulator bit for bit.
    With several flows, service and loss are split in proportion to
    each flow's share of the fluid present during the slot.
    """

    def __init__(self, capacity_per_slot, buffer_bytes):
        super().__init__(capacity_per_slot, buffer_bytes)
        self._backlog = 0.0

    @property
    def backlog(self):
        return self._backlog

    def run(self, arrivals):
        arrivals = self._check_rows(arrivals)
        c = self.capacity_per_slot
        total = flow_sum(arrivals)
        n = total.size
        backlog, lost_total = np.empty(n), np.zeros(n)
        start = self._backlog
        self._backlog = run_slots(
            total, c, self.buffer_bytes, state=(start, 0.0, start, 0.0),
            loss_series=lost_total, backlog_series=backlog,
        )[0]
        before = np.concatenate(([start], backlog[:-1]))
        # slot_step's served volume: all present fluid when the queue
        # drains (b + (a - c) < 0), the full capacity otherwise.
        served_total = np.where(before + (total - c) < 0.0, before + total, c)
        if len(arrivals) == 1:
            self._classes[self.flows[0]].backlog = self._backlog
            return RunResult(served_total[None], lost_total[None], backlog,
                             served_total, lost_total)
        served, lost = self._apportion(arrivals, (before + total).tolist(),
                                       served_total.tolist(), lost_total.tolist())
        return RunResult(served, lost, backlog, served_total, lost_total)

    def _apportion(self, arrivals, present, served_total, lost_total):
        """Split each slot's service and loss by the flows' fluid shares."""
        classes = list(self._classes.values())
        held = [cls.backlog for cls in classes]
        served = np.zeros_like(arrivals)
        lost = np.zeros_like(arrivals)
        for t, column in enumerate(arrivals.T.tolist()):
            if present[t] > 0.0:
                for i, arrival in enumerate(column):
                    available = held[i] + arrival
                    share = available / present[t]
                    s = served_total[t] * share
                    drop = lost_total[t] * share
                    served[i, t] = s
                    lost[i, t] = drop
                    held[i] = max(available - s - drop, 0.0)
        for cls, backlog in zip(classes, held):
            cls.backlog = backlog
        return served, lost


class PriorityDiscipline(Discipline):
    """Strict priority service with low-priority pushout.

    Classes are served in ascending ``priority`` order (0 is highest);
    on overflow, fluid is pushed out starting from the lowest priority.
    The overflow volume is the shared slot-fluid drop rule applied to
    the aggregate backlog.
    """

    def _ordered(self, reverse=False):
        items = list(self._classes.items())
        ranked = sorted(
            range(len(items)), key=lambda i: (items[i][1].priority, i),
            reverse=reverse,
        )
        return [items[i] for i in ranked]

    def step(self, arrivals):
        self._check_arrivals(arrivals)
        served = {}
        lost = {}
        for flow, cls in self._classes.items():
            cls.backlog += arrivals.get(flow, 0.0)
        remaining = self.capacity_per_slot
        for flow, cls in self._ordered():
            if remaining <= 0.0:
                break
            s = cls.backlog if cls.backlog < remaining else remaining
            if s > 0.0:
                cls.backlog -= s
                remaining -= s
                served[flow] = s
        total = sum(cls.backlog for cls in self._classes.values())
        _, overflow = clamp_backlog(total, self.buffer_bytes)
        if overflow > 0.0:
            for flow, cls in self._ordered(reverse=True):
                drop = cls.backlog if cls.backlog < overflow else overflow
                if drop > 0.0:
                    cls.backlog -= drop
                    overflow -= drop
                    lost[flow] = drop
                if overflow <= 0.0:
                    break
        return StepResult(
            served=served,
            lost=lost,
            backlog=self.backlog,
            served_total=sum(served.values()),
            lost_total=sum(lost.values()),
        )


class WFQDiscipline(Discipline):
    """Fluid weighted fair queueing over a shared buffer.

    Capacity is divided among backlogged classes in proportion to their
    weights; a class that cannot use its share returns the excess,
    which is redistributed over the remaining backlogged classes
    (work conservation).  Overflow -- the shared slot-fluid drop rule
    on the aggregate backlog -- is dropped from each class in
    proportion to its share of the buffered fluid.
    """

    def step(self, arrivals):
        self._check_arrivals(arrivals)
        served = {}
        lost = {}
        for flow, cls in self._classes.items():
            cls.backlog += arrivals.get(flow, 0.0)
        # Work-conserving water-filling: every round hands the unused
        # capacity of satisfied classes back to the still-backlogged
        # ones; each round fully drains at least one class, so the loop
        # is bounded by the class count.
        remaining = self.capacity_per_slot
        active = [flow for flow, cls in self._classes.items() if cls.backlog > 0.0]
        while remaining > 0.0 and active:
            total_weight = sum(self._classes[f].weight for f in active)
            next_active = []
            allocated = 0.0
            for flow in active:
                cls = self._classes[flow]
                share = remaining * cls.weight / total_weight
                if cls.backlog <= share:
                    take = cls.backlog
                else:
                    take = share
                    next_active.append(flow)
                if take > 0.0:
                    cls.backlog -= take
                    served[flow] = served.get(flow, 0.0) + take
                    allocated += take
            remaining -= allocated
            if len(next_active) == len(active) or allocated <= 0.0:
                break
            active = next_active
        total = sum(cls.backlog for cls in self._classes.values())
        _, overflow = clamp_backlog(total, self.buffer_bytes)
        if overflow > 0.0 and total > 0.0:
            for flow, cls in self._classes.items():
                drop = overflow * (cls.backlog / total)
                if drop > 0.0:
                    cls.backlog = max(cls.backlog - drop, 0.0)
                    lost[flow] = drop
        return StepResult(
            served=served,
            lost=lost,
            backlog=self.backlog,
            served_total=sum(served.values()),
            lost_total=sum(lost.values()),
        )


DISCIPLINES = {
    "fifo": FIFODiscipline,
    "priority": PriorityDiscipline,
    "wfq": WFQDiscipline,
}
"""Discipline name -> class, as referenced by topology specs."""


def make_discipline(name, capacity_per_slot, buffer_bytes):
    """Build a discipline by spec name (``fifo``, ``priority``, ``wfq``)."""
    try:
        cls = DISCIPLINES[name]
    except KeyError:
        raise ValueError(
            f"discipline must be one of {sorted(DISCIPLINES)}, got {name!r}"
        ) from None
    return cls(capacity_per_slot, buffer_bytes)
