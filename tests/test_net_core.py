"""repro.net core: disciplines, slot-fluid helper."""

import numpy as np
import pytest

from repro.net import (
    FIFODiscipline,
    PriorityDiscipline,
    WFQDiscipline,
    make_discipline,
)
from repro.simulation.slotfluid import clamp_backlog, fold_slots, slot_step


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
        result = disc.step({"hi": 8.0, "lo": 12.0})
        assert result.served["hi"] == 8.0
        assert result.served["lo"] == 2.0
        # 10 bytes of low left vs a 4-byte buffer: the 6-byte overflow
        # is pushed out of the low class only.
        assert result.lost == {"lo": pytest.approx(6.0)}
        assert disc.backlog == pytest.approx(4.0)

    def test_wfq_divides_by_weight_and_is_work_conserving(self):
        disc = WFQDiscipline(12.0, 100.0)
        disc.register("a", weight=2.0)
        disc.register("b", weight=1.0)
        result = disc.step({"a": 20.0, "b": 20.0})
        assert result.served["a"] == pytest.approx(8.0)
        assert result.served["b"] == pytest.approx(4.0)
        # Work conservation: a's unused share flows to b.
        disc2 = WFQDiscipline(12.0, 100.0)
        disc2.register("a", weight=2.0)
        disc2.register("b", weight=1.0)
        result = disc2.step({"a": 2.0, "b": 20.0})
        assert result.served["a"] == pytest.approx(2.0)
        assert result.served["b"] == pytest.approx(10.0)

    def test_unregistered_flow_is_rejected(self):
        disc = make_discipline("priority", 10.0, 5.0)
        with pytest.raises(KeyError, match="never registered"):
            disc.step({"ghost": 1.0})
        # Whole-horizon runs take one arrival row per registered flow.
        fifo = make_discipline("fifo", 10.0, 5.0)
        fifo.register("f")
        with pytest.raises(ValueError, match="one row per registered flow"):
            fifo.run(np.ones((2, 3)))

    @pytest.mark.parametrize("name", ["priority", "wfq"])
    def test_run_is_the_step_loop(self, rng, name):
        arrivals = rng.gamma(2.0, 400.0, size=(2, 150))
        stepped = make_discipline(name, 1_300.0, 2_000.0)
        whole = make_discipline(name, 1_300.0, 2_000.0)
        for disc in (stepped, whole):
            disc.register("x", priority=1, weight=1.0)
            disc.register("y", priority=0, weight=3.0)
        result = whole.run(arrivals)
        for t in range(arrivals.shape[1]):
            step = stepped.step({"x": arrivals[0, t], "y": arrivals[1, t]})
            assert result.served[:, t].tolist() == [
                step.served.get(f, 0.0) for f in ("x", "y")
            ]
            assert result.lost[:, t].tolist() == [
                step.lost.get(f, 0.0) for f in ("x", "y")
            ]
            assert result.backlog[t] == step.backlog
            assert result.served_total[t] == step.served_total
            assert result.lost_total[t] == step.lost_total

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
