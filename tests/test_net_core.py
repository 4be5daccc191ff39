"""repro.net core: disciplines, slot-fluid helper."""

from collections import namedtuple
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Flow,
    FIFODiscipline,
    PriorityDiscipline,
    WFQDiscipline,
    make_discipline,
)
from repro.net.sched import seqsum
from repro.simulation.queue import simulate_queue
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


_Ledger = namedtuple("_Ledger", "offered served lost held")


def _two_class_port(high, low, capacity, buffer_bytes):
    """A two-flow priority port, high registered first, run over one horizon.

    This is the layered-video queue of the paper's Section 5.3: base
    layer (high) served first, enhancement (low) pushed out first.
    Returns the run and one :class:`_Ledger` per class (bytes offered,
    served, lost and held at the end), each total added slot by slot.
    """
    port = PriorityDiscipline(capacity, buffer_bytes)
    port.register("high", priority=0)
    port.register("low", priority=1)
    arrivals = np.array([high, low], dtype=float)
    run = port.run(arrivals)
    ledgers = [
        _Ledger(seqsum(arrivals[i]), seqsum(run.served[i]), seqsum(run.lost[i]),
                cls.backlog)
        for i, cls in enumerate(port._classes.values())
    ]
    return run, ledgers


def _loss_rate(ledger):
    return ledger.lost / ledger.offered if ledger.offered > 0 else 0.0


class TestTwoClassPriorityPort:
    """Strict priority with pushout, through the net priority port."""

    def test_no_loss_with_ample_capacity(self, rng):
        h = rng.uniform(0, 3, size=500)
        low = rng.uniform(0, 3, size=500)
        _, (high, low_class) = _two_class_port(h, low, 10.0, 10.0)
        assert high.lost == 0.0
        assert low_class.lost == 0.0

    def test_low_priority_dropped_first(self, rng):
        h = rng.uniform(0, 5, size=2000)
        low = rng.uniform(0, 5, size=2000)
        _, (high, low_class) = _two_class_port(h, low, 5.2, 5.0)
        assert _loss_rate(low_class) > 0
        assert _loss_rate(high) < _loss_rate(low_class)

    def test_base_protected_when_base_fits(self, rng):
        """If the base layer alone fits the capacity, it loses nothing
        regardless of enhancement pressure."""
        h = rng.uniform(0, 2, size=2000)  # mean 1
        low = rng.uniform(0, 20, size=2000)  # massive overload
        _, (high, low_class) = _two_class_port(h, low, 3.0, 5.0)
        assert high.lost == 0.0
        assert _loss_rate(low_class) > 0.5

    def test_conservation(self, rng):
        h = rng.uniform(0, 5, size=1000)
        low = rng.uniform(0, 5, size=1000)
        run, ledgers = _two_class_port(h, low, 4.0, 15.0)
        for row, (offered, _, lost, _) in zip(run.lost, ledgers):
            assert row.sum() == pytest.approx(lost)
            assert lost <= offered

    def test_total_loss_close_to_fifo(self, rng):
        """Priorities redistribute loss between classes; the total is
        close to (never better than) the work-conserving FIFO's."""
        h = rng.uniform(0, 5, size=5000)
        low = rng.uniform(0, 5, size=5000)
        _, (high, low_class) = _two_class_port(h, low, 7.0, 30.0)
        fifo = simulate_queue(h + low, 7.0, 30.0)
        assert high.lost + low_class.lost == pytest.approx(fifo.lost_bytes, rel=0.05)

    def test_rejects_arrivals_without_a_row_per_class(self):
        port = PriorityDiscipline(1.0, 1.0)
        port.register("high", priority=0)
        port.register("low", priority=1)
        with pytest.raises(ValueError, match="one row per registered flow"):
            port.run([[1.0, 2.0]])

    def test_rejects_negative_volumes(self):
        with pytest.raises(ValueError, match="invalid volume -1.0"):
            Flow("high", ["a", "b"], [-1.0]).emissions(1)

    def test_priority_protects_base_layer(self, small_series):
        """The Section 5.3 scenario: under pressure, priorities keep
        the base layer nearly loss-free while FIFO punishes both."""
        x = small_series[:10_000]
        base = np.rint(0.4 * x)  # 40% of each frame's bytes in the base layer
        capacity = float(np.mean(x)) * 1.02
        buffer_bytes = 50_000.0
        fifo = simulate_queue(x, capacity, buffer_bytes)
        _, (high, low_class) = _two_class_port(base, x - base, capacity, buffer_bytes)
        assert fifo.loss_rate > 0
        assert _loss_rate(high) < 0.1 * fifo.loss_rate
        assert _loss_rate(low_class) > fifo.loss_rate

    def test_byte_ledger_closes_exactly_for_integer_arrivals(self, rng):
        """offered == served + lost + final backlog, per class, exactly:
        integer arrivals with integer capacity keep every intermediate
        value integral, so float arithmetic is exact."""
        for capacity, buffer_bytes in ((7.0, 20.0), (3.0, 0.0), (12.0, 5.0)):
            h = rng.integers(0, 8, size=1_500).astype(float)
            low = rng.integers(0, 8, size=1_500).astype(float)
            _, ledgers = _two_class_port(h, low, capacity, buffer_bytes)
            for offered, served, lost, held in ledgers:
                assert offered == served + lost + held

    def test_byte_ledger_closes_for_float_arrivals(self, rng):
        h = rng.uniform(0, 5, size=2_000)
        low = rng.uniform(0, 5, size=2_000)
        _, ledgers = _two_class_port(h, low, 4.5, 12.0)
        for offered, served, lost, held in ledgers:
            assert offered == pytest.approx(served + lost + held, rel=1e-12)

    def test_high_drops_only_after_low_is_empty(self, rng):
        """Replay the recursion slot by slot: whenever the port dropped a
        high-priority byte, the low-priority backlog must have been
        pushed out completely first."""
        h = rng.uniform(0, 9, size=3_000)
        low = rng.uniform(0, 3, size=3_000)
        capacity, q = 5.0, 8.0
        run, (high, _) = _two_class_port(h, low, capacity, q)
        assert high.lost > 0.0  # the scenario actually exercises pushout
        backlog_hi = backlog_lo = 0.0
        for t in range(h.size):
            backlog_hi += h[t]
            backlog_lo += low[t]
            served_hi = min(backlog_hi, capacity)
            backlog_hi -= served_hi
            backlog_lo -= min(backlog_lo, capacity - served_hi)
            overflow = backlog_hi + backlog_lo - q
            if overflow > 0.0:
                drop_lo = min(backlog_lo, overflow)
                backlog_lo -= drop_lo
                drop_hi = overflow - drop_lo
                backlog_hi -= drop_hi
                assert run.lost[0, t] == pytest.approx(drop_hi, abs=1e-9)
                if drop_hi > 0.0:
                    assert backlog_lo == 0.0
            else:
                assert run.lost[0, t] == 0.0

    def test_bufferless_overflow_is_clamped_to_the_high_backlog(self):
        """A hand-written two-class loop once pushed the leftover overflow
        out of the high class without clamping it to the high backlog,
        so a bufferless queue ended with a negative high backlog."""
        _, (high, low_class) = _two_class_port([0.1], [0.1], 0.05, 0.0)
        assert high.held == 0.0
        assert high.lost == 0.05
        assert low_class.lost == 0.1
        assert high.served + high.lost <= high.offered

    def test_no_class_goes_negative_or_loses_more_than_offered(self):
        rng = np.random.default_rng(33)
        for trial in range(400):
            n = int(rng.integers(1, 61))
            h = rng.gamma(0.9, 1.0, size=n) * (rng.random(n) < 0.8)
            low = rng.gamma(0.9, 1.0, size=n) * (rng.random(n) < 0.8)
            capacity = float(rng.uniform(0.2, 2.0))
            buffer_bytes = 0.0 if trial % 2 else float(rng.uniform(0.0, 3.0))
            _, ledgers = _two_class_port(h, low, capacity, buffer_bytes)
            for offered, _, lost, held in ledgers:
                assert held >= 0.0
                assert lost <= offered


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_priority_port_refines_fifo_property(seed):
    """Property: total loss under strict priority + pushout equals the
    FIFO loss on the merged stream (work conservation), for any input."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0, 10, size=300)
    low = rng.uniform(0, 10, size=300)
    c = float(rng.uniform(4, 16))
    q = float(rng.uniform(0, 60))
    _, (high, low_class) = _two_class_port(h, low, c, q)
    fifo = simulate_queue(h + low, c, q)
    assert high.lost + low_class.lost == pytest.approx(fifo.lost_bytes, abs=1e-6)
    # And the base layer never does worse than the merged stream.
    assert _loss_rate(high) <= fifo.loss_rate + 1e-12
