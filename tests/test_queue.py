"""Tests for the finite-buffer FIFO queue and the drawdown analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs import trace
from repro.simulation.queue import max_backlog, simulate_queue, zero_loss_capacity


class TestSimulateQueue:
    def test_no_loss_when_capacity_exceeds_peak(self, rng):
        a = rng.uniform(0, 10, size=1000)
        result = simulate_queue(a, capacity_per_slot=10.0, buffer_bytes=0.0)
        assert result.lost_bytes == 0.0
        assert result.loss_rate == 0.0

    def test_total_conservation(self, rng):
        """offered = served + lost + final backlog."""
        a = rng.uniform(0, 20, size=2000)
        c, q = 8.0, 50.0
        result = simulate_queue(a, c, q, return_series=True)
        served = result.total_bytes - result.lost_bytes - result.final_backlog
        # Served bytes cannot exceed capacity * slots.
        assert served <= c * a.size + 1e-9
        assert result.loss_series.sum() == pytest.approx(result.lost_bytes)

    def test_deterministic_overflow(self):
        """Hand-computed: arrivals [10, 10], c=2, Q=5.
        Slot 1: backlog 8 -> lose 3, keep 5.  Slot 2: 5+10-2=13 -> lose
        8, keep 5."""
        result = simulate_queue([10.0, 10.0], 2.0, 5.0, return_series=True)
        assert result.lost_bytes == pytest.approx(11.0)
        np.testing.assert_allclose(result.loss_series, [3.0, 8.0])
        assert result.final_backlog == pytest.approx(5.0)

    def test_zero_buffer_multiplexer(self):
        """Q=0: every slot loses exactly max(0, a - c)."""
        a = np.array([5.0, 1.0, 9.0])
        result = simulate_queue(a, 4.0, 0.0)
        assert result.lost_bytes == pytest.approx(1.0 + 0.0 + 5.0)

    def test_loss_monotone_in_capacity(self, rng):
        a = rng.uniform(0, 30, size=3000)
        losses = [simulate_queue(a, c, 40.0).loss_rate for c in (5.0, 10.0, 15.0, 29.0)]
        assert all(x >= y - 1e-12 for x, y in zip(losses, losses[1:]))

    def test_loss_monotone_in_buffer(self, rng):
        a = rng.uniform(0, 30, size=3000)
        losses = [simulate_queue(a, 12.0, q).loss_rate for q in (0.0, 20.0, 100.0, 1000.0)]
        assert all(x >= y - 1e-12 for x, y in zip(losses, losses[1:]))

    def test_peak_backlog_capped_at_buffer(self, rng):
        a = rng.uniform(0, 30, size=1000)
        result = simulate_queue(a, 5.0, 25.0)
        assert result.peak_backlog <= 25.0

    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError):
            simulate_queue([-1.0, 2.0], 1.0, 1.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            simulate_queue([1.0], 0.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_capacity(self, bad):
        with pytest.raises(ValueError):
            simulate_queue([1.0, 2.0], bad, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_buffer(self, bad):
        with pytest.raises(ValueError):
            simulate_queue([1.0, 2.0], 1.0, bad)


class TestMaxBacklog:
    def test_matches_infinite_buffer_simulation(self, rng):
        a = rng.uniform(0, 30, size=5000)
        c = 16.0
        analytic = max_backlog(a, c)
        sim = simulate_queue(a, c, buffer_bytes=1e18)
        assert analytic == pytest.approx(sim.peak_backlog, rel=1e-12)

    def test_zero_when_capacity_dominates(self, rng):
        a = rng.uniform(0, 5, size=100)
        assert max_backlog(a, 5.0) == 0.0

    def test_simple_case(self):
        # arrivals [4, 4, 0], c = 2: backlog path [2, 4, 2].
        assert max_backlog([4.0, 4.0, 0.0], 2.0) == pytest.approx(4.0)

    def test_zero_loss_iff_buffer_at_least_drawdown(self, rng):
        a = rng.uniform(0, 30, size=2000)
        c = 16.0
        q_star = max_backlog(a, c)
        assert simulate_queue(a, c, q_star).lost_bytes == pytest.approx(0.0, abs=1e-9)
        if q_star > 0:
            assert simulate_queue(a, c, q_star * 0.95).lost_bytes > 0


class TestZeroLossCapacity:
    def test_infinite_buffer_needs_only_mean(self, rng):
        """With a huge buffer, capacity just above the mean suffices."""
        a = rng.uniform(0, 10, size=5000)
        c = zero_loss_capacity(a, buffer_bytes=1e9)
        assert c <= np.mean(a) * 1.05

    def test_zero_buffer_needs_peak(self, rng):
        a = rng.uniform(0, 10, size=500)
        c = zero_loss_capacity(a, buffer_bytes=0.0)
        assert c == pytest.approx(np.max(a), rel=1e-3)

    def test_returned_capacity_actually_lossless(self, small_series):
        q = 200_000.0
        c = zero_loss_capacity(small_series, q)
        assert simulate_queue(small_series, c, q).lost_bytes == pytest.approx(0.0, abs=1.0)

    def test_monotone_in_buffer(self, small_series):
        c_small = zero_loss_capacity(small_series, 50_000.0)
        c_large = zero_loss_capacity(small_series, 2_000_000.0)
        assert c_large <= c_small

    def test_one_span_per_search(self, rng):
        a = rng.uniform(0, 10, size=3_000)
        trace.reset()
        try:
            with obs.enabled():
                zero_loss_capacity(a, buffer_bytes=20.0, rel_tol=1e-3)
                zero_loss_capacity(a, buffer_bytes=1e9)
            roots = trace.snapshot()
        finally:
            trace.reset()
        assert [root["name"] for root in roots] == ["queue.zero_loss_search"] * 2
        bisected, at_mean = (root["attrs"] for root in roots)
        assert not any(root.get("children") for root in roots)
        # About log2((peak - mean) / (rel_tol * c)) halvings, plus the
        # check at the mean.
        assert bisected["n"] == 3_000 and 8 <= bisected["steps"] <= 12
        assert at_mean == {"n": 3_000, "steps": 1}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(1.0, 20.0), q=st.floats(0.0, 100.0))
def test_queue_conservation_property(seed, c, q):
    """Property: bytes are conserved and loss never exceeds input."""
    a = np.random.default_rng(seed).uniform(0, 25, size=300)
    result = simulate_queue(a, c, q)
    assert 0.0 <= result.lost_bytes <= result.total_bytes + 1e-9
    assert 0.0 <= result.final_backlog <= q + 1e-9
    assert result.peak_backlog <= q + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(5.0, 30.0))
def test_drawdown_equals_infinite_buffer_peak_property(seed, c):
    """Property: the drawdown equals the loop simulation."""
    a = np.random.default_rng(seed).uniform(0, 25, size=400)
    assert max_backlog(a, c) == pytest.approx(
        simulate_queue(a, c, 1e15).peak_backlog, rel=1e-9, abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 3_000),
    kind=st.sampled_from(["uniform", "gamma", "integer", "pareto"]),
)
def test_peak_capacity_has_zero_drawdown_property(seed, n, kind):
    """Property: at ``c = max(a)`` no step rises, so the drawdown is exactly +0.0.

    This is why ``zero_loss_capacity`` can start its bisection at the
    peak without checking it.
    """
    rng = np.random.default_rng(seed)
    a = {
        "uniform": lambda: rng.uniform(0, 25, size=n),
        "gamma": lambda: rng.gamma(0.8, 1e4, size=n),
        "integer": lambda: rng.integers(1, 40, size=n).astype(float),
        "pareto": lambda: (rng.pareto(1.3, size=n) + 1.0) * 100.0,
    }[kind]()
    got = max_backlog(a, float(a.max()))
    assert got == 0.0
    assert np.float64(got).tobytes() == np.float64(0.0).tobytes()
