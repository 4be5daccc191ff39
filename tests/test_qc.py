"""Tests for the Q-C trade-off machinery (capacity/buffer searches,
curves, knee, SMG)."""

import numpy as np
import pytest

from repro.simulation.multiplex import lagged_arrival_sets, multiplex_series, random_lags
from repro.simulation.qc import (
    knee_point,
    qc_curve,
    required_buffer,
    required_capacity,
    smg_curve,
)
from repro.simulation.queue import (
    max_backlog,
    simulate_queue,
    smallest_feasible,
    zero_loss_capacity,
)
from repro.simulation.slotfluid import run_drawdown


@pytest.fixture(scope="module")
def series(small_series):
    return small_series[:8_000]


class TestRequiredBuffer:
    def test_zero_target_equals_drawdown(self, series):
        c = float(series.mean()) * 1.3
        q = required_buffer([series], c, 0.0)
        assert q == pytest.approx(max_backlog(series, c))

    def test_achieves_target(self, series):
        c = float(series.mean()) * 1.1
        target = 1e-3
        q = required_buffer([series], c, target)
        assert simulate_queue(series, c, q).loss_rate <= target * 1.02

    def test_near_minimal(self, series):
        """A 20% smaller buffer must violate the target."""
        c = float(series.mean()) * 1.1
        target = 1e-3
        q = required_buffer([series], c, target)
        if q > 0:
            assert simulate_queue(series, c, 0.8 * q).loss_rate > target

    def test_zero_when_capacity_huge(self, series):
        q = required_buffer([series], float(series.max()), 1e-3)
        assert q == 0.0

    def test_averages_over_draws(self, series, rng):
        lags = [random_lags(2, series.size, rng=rng) for _ in range(3)]
        sets = [multiplex_series(series, l) for l in lags]
        c = 2 * float(series.mean()) * 1.2
        q = required_buffer(sets, c, 1e-3)
        losses = [simulate_queue(a, c, q).loss_rate for a in sets]
        assert np.mean(losses) <= 1e-3 * 1.05

    def test_wes_metric(self, series):
        c = float(series.mean()) * 1.3
        q = required_buffer([series], c, 1e-2, metric="wes", slots_per_second=24)
        from repro.simulation.metrics import worst_errored_second_loss

        result = simulate_queue(series, c, q, return_series=True)
        wes = worst_errored_second_loss(result.loss_series, series, 24)
        assert wes <= 1e-2 * 1.1

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            required_buffer([], 10.0, 0.0)


class TestRequiredCapacity:
    def test_zero_target(self, series):
        q = 100_000.0
        c = required_capacity([series], q, 0.0)
        assert simulate_queue(series, c, q).lost_bytes == pytest.approx(0.0, abs=1.0)

    def test_lossy_target(self, series):
        q = 50_000.0
        target = 1e-3
        c = required_capacity([series], q, target)
        assert simulate_queue(series, c, q).loss_rate <= target * 1.02
        assert simulate_queue(series, c * 0.95, q).loss_rate > target * 0.5

    def test_looser_target_needs_less_capacity(self, series):
        q = 50_000.0
        c_strict = required_capacity([series], q, 1e-5)
        c_loose = required_capacity([series], q, 1e-2)
        assert c_loose < c_strict

    def test_bounded_by_mean_and_peak(self, series):
        q = 10_000.0
        c = required_capacity([series], q, 1e-4)
        assert series.mean() <= c <= series.max()


class TestQCCurve:
    def test_zero_loss_curve_shape(self, series, rng):
        curve = qc_curve(series, 1 / 24.0, n_sources=1, target_loss=0.0, n_points=8, rng=rng)
        assert curve.capacity_per_source.size == 8
        # More capacity -> less buffer -> less delay (monotone trend).
        assert curve.tmax_ms[0] > curve.tmax_ms[-1]
        assert np.all(np.diff(curve.tmax_ms) <= 1e-9)

    def test_capacity_in_mbps(self, series, rng):
        curve = qc_curve(series, 1 / 24.0, n_sources=1, target_loss=0.0, n_points=4, rng=rng)
        expected = curve.capacity_per_source * 8 * 24 / 1e6
        np.testing.assert_allclose(curve.capacity_per_source_mbps, expected)

    def test_looser_loss_curve_is_lower(self, series, rng):
        """For the same capacity, allowing loss shrinks the required
        buffer (Fig. 14's vertical ordering)."""
        strict = qc_curve(series, 1 / 24.0, 1, 0.0, n_points=4, rng=rng)
        loose = qc_curve(series, 1 / 24.0, 1, 1e-2, n_points=4, rng=rng)
        np.testing.assert_array_equal(loose.capacity_per_source, strict.capacity_per_source)
        assert np.all(loose.tmax_ms <= strict.tmax_ms)

    def test_multiplexed_needs_less_per_source(self, series, rng):
        """At matched T_max, 5 sources need less per-source capacity
        than 1 (statistical multiplexing gain in Q-C form)."""
        c1 = qc_curve(series, 1 / 24.0, 1, 0.0, n_points=10, rng=rng)
        c5 = qc_curve(series, 1 / 24.0, 5, 0.0, n_points=10, rng=rng, n_lag_draws=2)
        # Compare capacity needed for T_max <= 10 ms.
        cap1 = c1.capacity_per_source[np.searchsorted(-c1.tmax_ms, -10.0)]
        cap5 = c5.capacity_per_source[np.searchsorted(-c5.tmax_ms, -10.0)]
        assert cap5 < cap1

class TestKnee:
    def test_synthetic_l_curve(self):
        """A sharp synthetic L-shape has its knee at the corner."""
        from repro.simulation.qc import QCCurve

        x = np.linspace(1.0, 2.0, 21)
        y = np.where(x < 1.5, 10.0 ** (4 - 8 * (x - 1.0)), 10.0 ** (0.2 - 0.4 * (x - 1.5)))
        curve = QCCurve(
            n_sources=1,
            target_loss=0.0,
            metric="overall",
            slot_seconds=1 / 24.0,
            capacity_per_source=x,
            buffer_bytes=y,
            tmax_ms=y,
        )
        knee = knee_point(curve)
        assert abs(x[knee] - 1.5) < 0.15

    def test_knee_on_real_curve(self, series, rng):
        curve = qc_curve(series, 1 / 24.0, 1, 0.0, n_points=12, rng=rng)
        knee = knee_point(curve)
        assert 0 < knee < curve.capacity_per_source.size - 1

    def test_requires_three_points(self):
        from repro.simulation.qc import QCCurve

        curve = QCCurve(
            n_sources=1, target_loss=0.0, metric="overall", slot_seconds=1.0,
            capacity_per_source=np.array([1.0, 2.0]),
            buffer_bytes=np.array([1.0, 0.5]),
            tmax_ms=np.array([1.0, 0.5]),
        )
        with pytest.raises(ValueError):
            knee_point(curve)


class TestSMG:
    def test_capacity_decreases_with_n(self, series, rng):
        result = smg_curve(series, 1 / 24.0, n_values=(1, 2, 5), target_loss=0.0, rng=rng, n_lag_draws=2)
        caps = result["capacity_per_source"]
        assert caps[0] > caps[1] > caps[2]

    def test_n1_near_peak_and_bounds(self, series, rng):
        result = smg_curve(series, 1 / 24.0, n_values=(1,), target_loss=0.0, tmax_ms=2.0, rng=rng)
        cap = result["capacity_per_source"][0]
        assert result["mean_rate"] < cap <= result["peak_rate"] * 1.001
        assert cap > 0.8 * result["peak_rate"]

    def test_gain_fraction_definition(self, series, rng):
        result = smg_curve(series, 1 / 24.0, n_values=(1, 5), target_loss=0.0, rng=rng, n_lag_draws=2)
        caps = result["capacity_per_source"]
        expected = (result["peak_rate"] - caps) / (result["peak_rate"] - result["mean_rate"])
        np.testing.assert_allclose(result["gain_fraction"], expected)

    def test_lossy_target_needs_less(self, series, rng):
        strict = smg_curve(series, 1 / 24.0, n_values=(2,), target_loss=0.0, rng=np.random.default_rng(4), n_lag_draws=2)
        loose = smg_curve(series, 1 / 24.0, n_values=(2,), target_loss=1e-2, rng=np.random.default_rng(4), n_lag_draws=2)
        assert loose["capacity_per_source"][0] <= strict["capacity_per_source"][0] * 1.01

    def test_substantial_gain_by_n5(self, series, rng):
        """The paper's headline: ~72% of the peak-to-mean gain by N=5."""
        result = smg_curve(series, 1 / 24.0, n_values=(5,), target_loss=0.0, rng=rng)
        assert result["gain_fraction"][0] > 0.5


def _reference_bisection(feasible, lo, hi, rel_tol, q_max=None):
    """The loop every requirement search ran before ``smallest_feasible``.

    ``q_max`` given: the buffer searches' fixed width
    ``rel_tol * max(q_max, 1.0)``; omitted: the capacity searches'
    ``rel_tol * hi``.
    """
    if q_max is None:
        while (hi - lo) > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi
    while (hi - lo) > rel_tol * max(q_max, 1.0):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _step(threshold, points):
    """A monotone step predicate that records every point it is asked."""

    def feasible(x):
        points.append(x)
        return x >= threshold

    return feasible


class TestSmallestFeasible:
    """The one bisection evaluates the parent loops' points, in order."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_points_as_the_reference_loops(self, seed):
        rng = np.random.default_rng(seed)
        lo = float(rng.uniform(0.0, 100.0))
        hi = lo + float(rng.exponential(50.0))
        # Thresholds inside the bracket, below it (lo already feasible)
        # and on its ends.
        threshold = float(rng.choice([rng.uniform(lo, hi), lo - 1.0, lo, hi]))
        rel_tol = float(rng.choice([1e-2, 1e-3, 1e-4, 5e-3]))
        q_max = float(rng.choice([hi, 0.5, hi * 3.0]))
        for scale_args, ref_args in (({}, {}),
                                     ({"scale": max(q_max, 1.0)}, {"q_max": q_max})):
            want_points, got_points = [], []
            want = _reference_bisection(_step(threshold, want_points), lo, hi,
                                        rel_tol, **ref_args)
            got = smallest_feasible(_step(threshold, got_points), lo, hi,
                                    rel_tol, **scale_args)
            assert got == want
            assert got_points == want_points
            assert got_points  # the bracket was wide enough to search

    def test_empty_bracket_evaluates_nothing(self):
        points = []
        assert smallest_feasible(_step(0.0, points), 3.0, 3.0, 1e-4) == 3.0
        assert smallest_feasible(_step(0.0, points), 3.0, 3.0, 1e-4, scale=1.0) == 3.0
        assert points == []

    @pytest.mark.parametrize("q", [0.0, 20.0, 1e9])
    def test_zero_loss_capacity_is_the_reference_search(self, q):
        a = np.random.default_rng(7).uniform(0.0, 10.0, size=3_000)
        lo, hi = float(np.mean(a)), float(np.max(a))

        def feasible(c):
            return run_drawdown(a, c) <= q

        want = lo if feasible(lo) else _reference_bisection(feasible, lo, hi, 1e-4)
        assert zero_loss_capacity(a, q) == want


class TestLaggedArrivalSets:
    """The builder is the inline comprehension it replaced, rng and all."""

    @pytest.mark.parametrize("n_sources,n_draws,min_separation",
                             [(2, 6, 1000), (5, 3, 100), (20, 6, 200), (3, 1, 0)])
    def test_matches_the_comprehension(self, series, n_sources, n_draws,
                                       min_separation):
        want_rng, got_rng = np.random.default_rng(11), np.random.default_rng(11)
        want = [
            multiplex_series(series, random_lags(
                n_sources, series.size, min_separation=min_separation, rng=want_rng))
            for _ in range(n_draws)
        ]
        got = lagged_arrival_sets(series, n_sources, n_draws, min_separation, got_rng)
        assert len(got) == n_draws
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_one_source_is_one_unlagged_draw(self, series):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        sets = lagged_arrival_sets(series, 1, 6, 1000, rng)
        assert len(sets) == 1 and sets[0].tobytes() == series.tobytes()
        assert rng.bit_generator.state == before


class TestZeroLossRule:
    """``target_loss == 0`` is the drawdown test whatever the metric."""

    # WES drops the trailing partial second, which is where this loses.
    a = np.array([1.0] * 8 + [1.0, 9.0])

    def test_buffer_and_capacity_agree_across_metrics(self):
        for search, resource in ((required_buffer, 2.0), (required_capacity, 3.0)):
            wes = search([self.a], resource, 0, metric="wes", slots_per_second=4)
            overall = search([self.a], resource, 0, metric="overall",
                             slots_per_second=4)
            assert wes == overall
        assert required_buffer([self.a], 2.0, 0, metric="wes") == max_backlog(self.a, 2.0)
        capacity = required_capacity([self.a], 3.0, 0, metric="wes", slots_per_second=4)
        assert capacity == zero_loss_capacity(self.a, 3.0) > 6.0
