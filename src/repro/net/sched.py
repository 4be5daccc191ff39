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
  and, under buffer pressure, pushes out low-priority fluid first: one
  :func:`~repro.simulation.slotfluid.fold_priority` pass, the one
  strict-priority recursion (with two flows, the base/enhancement
  layered-video queue of the paper's Section 5.3).
- :class:`WFQDiscipline` splits capacity across backlogged classes in
  weight proportion with work-conserving redistribution (fluid
  weighted fair queueing) and drops overflow in proportion to each
  class's share of the buffer, via the shared
  :func:`~repro.simulation.slotfluid.clamp_backlog`, in one loop over
  the horizon.

Flows are registered once (:meth:`~Discipline.register`) before the
run; registration order is the row order of the arrival and result
arrays, the deterministic tie-break for equal priorities and the
summation order for aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_nonnegative, require_positive
from repro.simulation.slotfluid import clamp_backlog, fold_priority, run_slots

__all__ = [
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
        """Aggregate bytes currently buffered (0.0 with no flow registered)."""
        return seqsum([cls.backlog for cls in self._classes.values()])

    def run(self, arrivals):
        """Serve every slot of ``arrivals``; returns a :class:`RunResult`.

        ``arrivals`` has one row per registered flow, in registration
        order, and one column per slot.
        """
        raise NotImplementedError

    def _check_rows(self, arrivals):
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.ndim != 2 or len(arrivals) != len(self._classes):
            raise ValueError(
                f"arrivals need one row per registered flow "
                f"({len(self._classes)}), got shape {arrivals.shape}"
            )
        return arrivals


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
    The whole horizon is one
    :func:`~repro.simulation.slotfluid.fold_priority` fold, whose
    overflow volume is the shared slot-fluid drop rule applied to the
    aggregate backlog.
    """

    def run(self, arrivals):
        arrivals = self._check_rows(arrivals)
        classes = list(self._classes.values())
        *series, held = fold_priority(
            arrivals, self.capacity_per_slot, self.buffer_bytes,
            [cls.priority for cls in classes], [cls.backlog for cls in classes],
        )
        for cls, backlog in zip(classes, held):
            cls.backlog = backlog
        return RunResult(*series)


class WFQDiscipline(Discipline):
    """Fluid weighted fair queueing over a shared buffer.

    Capacity is divided among backlogged classes in proportion to their
    weights; a class that cannot use its share returns the excess,
    which is redistributed over the remaining backlogged classes
    (work conservation).  Overflow -- the shared slot-fluid drop rule
    on the aggregate backlog -- is dropped from each class in
    proportion to its share of the buffered fluid.
    """

    def run(self, arrivals):
        arrivals = self._check_rows(arrivals)
        classes = list(self._classes.values())
        k, n = arrivals.shape
        weights = [cls.weight for cls in classes]
        held = [cls.backlog for cls in classes]
        served = [[0.0] * n for _ in range(k)]
        lost = [[0.0] * n for _ in range(k)]
        level, served_total = [0.0] * n, [0.0] * n
        flows = range(k)
        for t, column in enumerate(zip(*arrivals.tolist())):
            for i in flows:
                held[i] += column[i]
            # Work-conserving water-filling: every round hands the unused
            # capacity of satisfied classes back to the still-backlogged
            # ones; each round fully drains at least one class, so the
            # loop is bounded by the class count.  ``first`` lists the
            # classes in the order they were first served this slot: the
            # order the slot's served total adds them in.
            remaining = self.capacity_per_slot
            active = [i for i in flows if held[i] > 0.0]
            first = []
            while remaining > 0.0 and active:
                total_weight = 0.0
                for i in active:
                    total_weight += weights[i]
                next_active = []
                allocated = 0.0
                for i in active:
                    share = remaining * weights[i] / total_weight
                    if held[i] <= share:
                        take = held[i]
                    else:
                        take = share
                        next_active.append(i)
                    if take > 0.0:
                        held[i] -= take
                        if served[i][t] == 0.0:
                            first.append(i)
                        served[i][t] += take
                        allocated += take
                remaining -= allocated
                if len(next_active) == len(active) or allocated <= 0.0:
                    break
                active = next_active
            out = 0.0
            for i in first:
                out += served[i][t]
            served_total[t] = out
            total = 0.0
            for x in held:
                total += x
            _, overflow = clamp_backlog(total, self.buffer_bytes)
            if overflow > 0.0 and total > 0.0:
                for i in flows:
                    drop = overflow * (held[i] / total)
                    if drop > 0.0:
                        held[i] = max(held[i] - drop, 0.0)
                        lost[i][t] = drop
                total = 0.0
                for x in held:
                    total += x
            level[t] = total
        for cls, backlog in zip(classes, held):
            cls.backlog = backlog
        # A slot's drops add up in registration order.
        lost = np.array(lost).reshape(k, n)
        return RunResult(np.array(served).reshape(k, n), lost, np.array(level),
                         np.array(served_total), flow_sum(lost))


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
