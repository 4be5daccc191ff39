"""repro.net core: disciplines, slot-fluid helper."""

from functools import reduce
from operator import add

import numpy as np
import pytest

from repro.net import (
    FIFODiscipline,
    PriorityDiscipline,
    WFQDiscipline,
    make_discipline,
)
from repro.simulation.slotfluid import clamp_backlog, fold_slots, slot_step


def _sum(values):
    """Left-to-right float sum from 0: builtin ``sum`` up to Python 3.11.

    From 3.12 on ``sum`` compensates float rounding; the oracle keeps
    the plain sequential additions the per-slot code made.
    """
    return reduce(add, values, 0)


class _Class:
    def __init__(self, priority, weight):
        self.priority = priority
        self.weight = weight
        self.backlog = 0.0


class _StepOracle:
    """The per-slot priority and WFQ arithmetic the whole-horizon folds replace.

    ``priority_step`` and ``wfq_step`` are the one-slot ``step`` methods
    the disciplines had, kept as they were (with :func:`_sum` for
    ``sum``); :meth:`run` loops one of them over the horizon and fills
    the per-slot arrays the way the per-slot engine did.
    """

    def __init__(self, capacity_per_slot, buffer_bytes, classes):
        self.capacity_per_slot = capacity_per_slot
        self.buffer_bytes = buffer_bytes
        self._classes = {
            flow: _Class(priority, weight) for flow, priority, weight in classes
        }

    @property
    def backlog(self):
        return _sum(cls.backlog for cls in self._classes.values())

    def _ordered(self, reverse=False):
        items = list(self._classes.items())
        ranked = sorted(
            range(len(items)), key=lambda i: (items[i][1].priority, i),
            reverse=reverse,
        )
        return [items[i] for i in ranked]

    def priority_step(self, arrivals):
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
        total = _sum(cls.backlog for cls in self._classes.values())
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
        return served, lost, self.backlog, _sum(served.values()), _sum(lost.values())

    def wfq_step(self, arrivals):
        served = {}
        lost = {}
        for flow, cls in self._classes.items():
            cls.backlog += arrivals.get(flow, 0.0)
        remaining = self.capacity_per_slot
        active = [flow for flow, cls in self._classes.items() if cls.backlog > 0.0]
        while remaining > 0.0 and active:
            total_weight = _sum(self._classes[f].weight for f in active)
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
        total = _sum(cls.backlog for cls in self._classes.values())
        _, overflow = clamp_backlog(total, self.buffer_bytes)
        if overflow > 0.0 and total > 0.0:
            for flow, cls in self._classes.items():
                drop = overflow * (cls.backlog / total)
                if drop > 0.0:
                    cls.backlog = max(cls.backlog - drop, 0.0)
                    lost[flow] = drop
        return served, lost, self.backlog, _sum(served.values()), _sum(lost.values())

    def run(self, name, arrivals):
        step = self.priority_step if name == "priority" else self.wfq_step
        flows = list(self._classes)
        served = np.zeros_like(arrivals)
        lost = np.zeros_like(arrivals)
        n = arrivals.shape[1]
        backlog, served_total, lost_total = np.empty(n), np.empty(n), np.empty(n)
        for t, column in enumerate(arrivals.T.tolist()):
            by_flow, dropped, backlog[t], served_total[t], lost_total[t] = step(
                dict(zip(flows, column))
            )
            for i, flow in enumerate(flows):
                served[i, t] = by_flow.get(flow, 0.0)
                lost[i, t] = dropped.get(flow, 0.0)
        return served, lost, backlog, served_total, lost_total


def _oracle_cases():
    """Inputs for the fold-vs-oracle comparison, as ``(id, case)`` pairs."""
    rng = np.random.default_rng(20_240_613)
    cases = []
    for k in (1, 2, 3, 4):
        for buffer_bytes in (0.0, 1_500.0, 1e12):
            for slots in (1, 2, 97):
                priorities = rng.integers(0, 2, size=k).tolist()  # ties included
                weights = (rng.choice([1.0, 2.5, 0.3], size=k).tolist()
                           if k % 2 else [1.0] * k)
                arrivals = rng.gamma(0.8, 500.0, size=(k, slots))
                arrivals *= rng.random((k, slots)) < 0.8
                if k > 1 and slots > 1:
                    arrivals[-1, : slots // 2] = 0.0  # a late starter
                cases.append((
                    f"k{k}-q{buffer_bytes:g}-t{slots}",
                    (priorities, weights, arrivals, 800.0 * k ** 0.5, buffer_bytes),
                ))
    return cases


_ORACLE_CASES = _oracle_cases()


class TestSlotFluidHelpers:
    def test_fold_slots_matches_repeated_slot_step(self, rng):
        arrivals = rng.gamma(2.0, 400.0, size=300)
        c, q = 900.0, 2_500.0
        backlog = lost = peak = total = 0.0
        losses = []
        for a in arrivals:
            total += a
            backlog, _, drop = slot_step(backlog, a, c, q)
            lost += drop
            losses.append(drop)
            peak = max(peak, backlog)
        series = np.zeros(arrivals.size)
        state = fold_slots(arrivals.tolist(), c, q, loss_series=series)
        assert state == (backlog, lost, peak, total)
        assert series.tolist() == losses

    def test_clamp_backlog_overflow_and_floor(self):
        assert clamp_backlog(5.0, 3.0) == (3.0, 2.0)
        assert clamp_backlog(-1.0, 3.0) == (0.0, 0.0)
        assert clamp_backlog(2.0, 3.0) == (2.0, 0.0)


class TestDisciplines:
    def test_fifo_single_flow_is_the_slot_recursion(self, rng):
        arrivals = rng.gamma(2.0, 500.0, size=200)
        c, q = 1_100.0, 3_000.0
        disc = FIFODiscipline(c, q)
        disc.register("f")
        result = disc.run(arrivals[None])
        backlog = 0.0
        for t, a in enumerate(arrivals):
            backlog, expect_served, expect_lost = slot_step(backlog, a, c, q)
            assert result.backlog[t] == backlog
            assert result.served_total[t] == result.served[0, t] == expect_served
            assert result.lost_total[t] == result.lost[0, t] == expect_lost
        assert disc.backlog == backlog

    def test_fifo_multi_flow_conserves_and_apportions(self):
        disc = FIFODiscipline(10.0, 5.0)
        disc.register("a")
        disc.register("b")
        result = disc.run([[12.0], [6.0]])
        # Aggregate follows the recursion: serve 10, keep 5, drop 3.
        assert result.served_total[0] == 10.0
        assert result.backlog[0] == 5.0
        assert result.lost_total[0] == pytest.approx(3.0)
        # Proportional split: a has 2/3 of the fluid.
        assert result.served[0, 0] == pytest.approx(result.served[1, 0] * 2.0)
        assert result.lost[:, 0].sum() == pytest.approx(3.0)
        offered = 18.0
        accounted = (
            result.served_total[0] + result.lost_total[0] + disc.backlog
        )
        assert accounted == pytest.approx(offered)

    def test_priority_protects_high_class(self):
        disc = PriorityDiscipline(10.0, 4.0)
        disc.register("hi", priority=0)
        disc.register("lo", priority=1)
        result = disc.run([[8.0], [12.0]])
        assert result.served[:, 0].tolist() == [8.0, 2.0]
        # 10 bytes of low left vs a 4-byte buffer: the 6-byte overflow
        # is pushed out of the low class only.
        assert result.lost[0, 0] == 0.0
        assert result.lost[1, 0] == pytest.approx(6.0)
        assert disc.backlog == pytest.approx(4.0)

    def test_wfq_divides_by_weight_and_is_work_conserving(self):
        disc = WFQDiscipline(12.0, 100.0)
        disc.register("a", weight=2.0)
        disc.register("b", weight=1.0)
        result = disc.run([[20.0], [20.0]])
        assert result.served[0, 0] == pytest.approx(8.0)
        assert result.served[1, 0] == pytest.approx(4.0)
        # Work conservation: a's unused share flows to b.
        disc2 = WFQDiscipline(12.0, 100.0)
        disc2.register("a", weight=2.0)
        disc2.register("b", weight=1.0)
        result = disc2.run([[2.0], [20.0]])
        assert result.served[0, 0] == pytest.approx(2.0)
        assert result.served[1, 0] == pytest.approx(10.0)

    def test_unregistered_flow_is_rejected(self):
        # Whole-horizon runs take one arrival row per registered flow.
        fifo = make_discipline("fifo", 10.0, 5.0)
        fifo.register("f")
        with pytest.raises(ValueError, match="one row per registered flow"):
            fifo.run(np.ones((2, 3)))

    @pytest.mark.parametrize("name", ["priority", "wfq"])
    def test_run_is_the_step_loop(self, name):
        for case_id, case in _ORACLE_CASES:
            priorities, weights, arrivals, capacity, buffer_bytes = case
            flows = [f"f{i}" for i in range(len(priorities))]
            oracle = _StepOracle(capacity, buffer_bytes,
                                 zip(flows, priorities, weights))
            disc = make_discipline(name, capacity, buffer_bytes)
            for flow, priority, weight in zip(flows, priorities, weights):
                disc.register(flow, priority=priority, weight=weight)
            # Two runs carry the class backlogs across, as one horizon would.
            cut = arrivals.shape[1] // 2
            halves = [disc.run(arrivals[:, :cut]), disc.run(arrivals[:, cut:])]
            got = [np.concatenate(parts, axis=-1) for parts in zip(
                *[(r.served, r.lost, r.backlog, r.served_total, r.lost_total)
                  for r in halves]
            )]
            want = oracle.run(name, arrivals)
            for field, g, w in zip(
                ("served", "lost", "backlog", "served_total", "lost_total"),
                got, want,
            ):
                assert g.tobytes() == w.tobytes(), (case_id, field)
            assert ([c.backlog for c in disc._classes.values()]
                    == [c.backlog for c in oracle._classes.values()]), case_id

    def test_duplicate_registration_is_rejected(self):
        disc = make_discipline("wfq", 10.0, 5.0)
        disc.register("f")
        with pytest.raises(ValueError, match="already registered"):
            disc.register("f")

    def test_unknown_discipline_name(self):
        with pytest.raises(ValueError, match="discipline"):
            make_discipline("lifo", 10.0, 5.0)

    @pytest.mark.parametrize("name", ["fifo", "priority", "wfq"])
    def test_non_finite_parameters_are_rejected(self, name):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                make_discipline(name, bad, 5.0)
            with pytest.raises(ValueError):
                make_discipline(name, 10.0, bad)
