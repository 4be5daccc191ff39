"""Tier-1 checks for the slot-fluid queue kernel.

``run_slots`` (the array entry point, folding through the compiled C
loop) and ``fold_slots`` (the Python loop that is its fallback and its
oracle) must reproduce the recursion spelled out slot by slot through
``slot_step``: the golden anchor checks the loss *series* and the full
backlog trajectory, not just the summary tuple.  The compiled fold must
equal the oracle bit for bit on clamp-dense inputs, the state tuple must
resume across arbitrary chunk boundaries, and the FIFO discipline's
whole-horizon run must equal a ``slot_step`` loop.  The compiled
zero-loss drawdown (``run_drawdown``) must equal its numpy oracle
(``max_drawdown``) bit for bit, and the row fold (``run_rows``) must
equal ``run_slots`` on every row bit for bit.  Without a compiler, every kernel of the
one library (the table lookup too) falls back with one WARNING.
"""

import logging
import shutil

import numpy as np
import pytest

from repro import _kernel
from repro.distributions import TabulatedDistribution
from repro.distributions.hybrid import GammaParetoHybrid
from repro.net.sched import FIFODiscipline
from repro.simulation import slotfluid
from repro.simulation.queue import max_backlog, zero_loss_capacity
from repro.simulation.slotfluid import (
    fold_slots,
    max_drawdown,
    run_drawdown,
    run_rows,
    run_slots,
    slot_step,
)


def _loop_reference(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0)):
    """The recursion spelled out slot by slot via ``slot_step``."""
    backlog, lost, peak, total = state
    losses = np.zeros(len(values))
    trajectory = np.empty(len(values))
    for t, arrival in enumerate(values):
        total += arrival
        backlog, _, dropped = slot_step(backlog, arrival, capacity, buffer_bytes)
        lost += dropped
        losses[t] = dropped
        trajectory[t] = backlog
        peak = max(peak, backlog)
    return (backlog, lost, peak, total), losses, trajectory


def _integer_arrivals(rng, n, scale=40):
    """Integer-valued fluid keeps every partial sum exact in float64."""
    return rng.integers(0, scale, size=n).astype(float)


class TestGoldenAnchor:
    """The documented micro-example: a = [10, 10], c = 2, Q = 5."""

    def test_summary_state(self):
        got = run_slots(np.array([10.0, 10.0]), 2.0, 5.0)
        assert got == (5.0, 11.0, 5.0, 20.0)
        assert got == fold_slots([10.0, 10.0], 2.0, 5.0)

    def test_loss_series_and_trajectory(self):
        a = np.array([10.0, 10.0])
        losses = np.zeros(2)
        run_slots(a, 2.0, 5.0, loss_series=losses)
        np.testing.assert_array_equal(losses, [3.0, 8.0])
        reference, ref_losses, trajectory = _loop_reference(a, 2.0, 5.0)
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(trajectory, [5.0, 5.0])
        assert reference == (5.0, 11.0, 5.0, 20.0)


def _oracle(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0)):
    """``fold_slots`` on a plain list: the state and the loss series."""
    as_list = values if isinstance(values, list) else values.tolist()
    losses = np.zeros(len(as_list))
    got = fold_slots(as_list, capacity, buffer_bytes, state=state, loss_series=losses)
    return got, losses


def _assert_same_fold(got, losses, want, want_losses):
    np.testing.assert_array_equal(got, want)
    assert losses.tobytes() == want_losses.tobytes()


def _oracle_trail(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0)):
    """``fold_slots`` with a backlog series: the state and the trail."""
    trail = np.full(len(values), np.nan)
    got = fold_slots(values.tolist(), capacity, buffer_bytes, state=state,
                     backlog_series=trail)
    return got, trail


class TestCompiledMatchesOracle:
    """The compiled fold against ``fold_slots``, bit for bit.

    The inputs are clamp-dense: capacity within 1% of the mean keeps the
    backlog crossing both barriers, and Q runs from 0 through a few
    means to infinity (the allocator's ``peak_need`` call).
    """

    @pytest.mark.parametrize("scale", [1e-3, 1e6])
    @pytest.mark.parametrize("q_means", [0.0, 0.5, 3.0, np.inf])
    def test_clamp_dense_state_and_loss_series(self, rng, scale, q_means):
        a = rng.gamma(0.8, scale, size=20_000)
        mean = float(a.mean())
        c = mean * rng.uniform(0.99, 1.01)
        q = q_means * mean
        state = (min(q, 0.7 * mean), 2.0 * scale, mean, 1_000.0 * scale)
        losses = np.zeros(a.size)
        got = run_slots(a, c, q, state=state, loss_series=losses)
        _assert_same_fold(got, losses, *_oracle(a, c, q, state=state))

    @pytest.mark.parametrize("chunk", [1, 777, 65_536])
    def test_chunk_partitions(self, rng, chunk):
        n = 3_000 if chunk == 1 else 150_000
        a = rng.gamma(0.8, 1e3, size=n)
        c, q = 1.005 * float(a.mean()), 2_000.0
        start_state = (300.0, 5.0, 900.0, 7e4)
        want = _oracle(a, c, q, state=start_state)
        state, losses = start_state, np.zeros(n)
        for start in range(0, n, chunk):
            state = run_slots(a[start : start + chunk], c, q, state=state,
                              loss_series=losses[start : start + chunk])
        _assert_same_fold(state, losses, *want)

    @pytest.mark.parametrize("q_means", [0.0, 0.5, np.inf])
    def test_backlog_series_clamp_dense(self, rng, q_means):
        a = rng.gamma(0.8, 1e3, size=20_000)
        mean = float(a.mean())
        c, q = mean * 1.003, q_means * mean
        state = (min(q, 0.7 * mean), 2e3, mean, 1e6)
        want, want_trail = _oracle_trail(a, c, q, state=state)
        trail = np.full(a.size, np.nan)
        got = run_slots(a, c, q, state=state, backlog_series=trail)
        _assert_same_fold(got, trail, want, want_trail)
        # Both series at once: the same trail, and the loss oracle's series.
        trail, losses = np.full(a.size, np.nan), np.zeros(a.size)
        got = run_slots(a, c, q, state=state, loss_series=losses,
                        backlog_series=trail)
        _assert_same_fold(got, trail, want, want_trail)
        _assert_same_fold(got, losses, *_oracle(a, c, q, state=state))
        _, _, ref_trail = _loop_reference(a, c, q, state=state)
        assert trail.tobytes() == ref_trail.tobytes()

    @pytest.mark.parametrize("chunk", [1, 777, 65_536])
    def test_backlog_series_chunk_partitions(self, rng, chunk):
        n = 3_000 if chunk == 1 else 150_000
        a = rng.gamma(0.8, 1e3, size=n)
        c, q = 1.005 * float(a.mean()), 2_000.0
        start_state = (300.0, 5.0, 900.0, 7e4)
        want = _oracle_trail(a, c, q, state=start_state)
        state, trail = start_state, np.full(n, np.nan)
        for start in range(0, n, chunk):
            state = run_slots(a[start : start + chunk], c, q, state=state,
                              backlog_series=trail[start : start + chunk])
        _assert_same_fold(state, trail, *want)

    @pytest.mark.parametrize("kind", ["list", "int64", "float32", "strided", "empty"])
    def test_input_types(self, rng, kind):
        base = rng.gamma(0.8, 50.0, size=4_000)
        values = {
            "list": base.tolist(),
            "int64": base.astype(np.int64),
            "float32": base.astype(np.float32),
            "strided": base[::2],
            "empty": base[:0],
        }[kind]
        c, q, state = 41.5, 120.0, (60.0, 1.0, 80.0, 10.0)
        losses = np.zeros(len(values))
        got = run_slots(values, c, q, state=state, loss_series=losses)
        _assert_same_fold(got, losses, *_oracle(values, c, q, state=state))
        assert all(type(x) is float for x in got)


def _bits(x):
    return np.float64(x).tobytes()


def _drawdown_series(rng, kind, n):
    return {
        "gamma": lambda: rng.gamma(0.8, 1e4, size=n),
        "integer": lambda: _integer_arrivals(rng, n).astype(float),
        "pareto": lambda: (rng.pareto(1.3, size=n) + 1.0) * 100.0,
        "constant": lambda: np.full(n, 7.3),
    }[kind]()


class TestCompiledDrawdownMatchesOracle:
    """``run_drawdown`` against the numpy ``max_drawdown``, bytewise."""

    @pytest.mark.parametrize("kind", ["gamma", "integer", "pareto", "constant"])
    @pytest.mark.parametrize("n", [1, 2, 57, 4_000, 50_000])
    def test_capacity_sweep(self, rng, kind, n):
        a = _drawdown_series(rng, kind, n)
        mean = float(a.mean())
        capacities = [mean, float(a.max()), float(a[0]),
                      *(mean * rng.uniform(0.7, 1.5, size=12))]
        for c in capacities:
            assert _bits(run_drawdown(a, c)) == _bits(max_drawdown(a, c)), c

    def test_one_element(self):
        assert run_drawdown(np.array([5.0]), 2.0) == 3.0
        assert _bits(run_drawdown(np.array([2.0]), 5.0)) == _bits(0.0)

    @pytest.mark.parametrize("kind", ["gamma", "integer", "pareto", "constant"])
    def test_capacity_equal_to_first_arrival(self, rng, kind):
        # The walk starts at a[0] - c == +0.0: seeding it with -0.0, or
        # a max that kept a -0.0, would differ from numpy in the sign bit.
        a = _drawdown_series(rng, kind, 3_000)
        c = float(a[0])
        assert _bits(run_drawdown(a, c)) == _bits(max_drawdown(a, c))
        assert _bits(run_drawdown(a[:1], c)) == _bits(0.0)

    def test_empty_series(self):
        assert _bits(run_drawdown(np.empty(0), 3.0)) == _bits(max_drawdown(np.empty(0), 3.0))

    def test_random_cases(self, rng):
        mismatches = 0
        for _ in range(300):
            kind = rng.choice(["gamma", "integer", "pareto", "constant"])
            a = _drawdown_series(rng, kind, int(rng.integers(1, 5_000)))
            c = float(a.mean()) * rng.uniform(0.7, 1.5)
            mismatches += _bits(run_drawdown(a, c)) != _bits(max_drawdown(a, c))
        assert mismatches == 0

    @pytest.mark.parametrize("kind", ["list", "int64", "float32", "strided"])
    def test_input_types_through_max_backlog(self, rng, kind):
        base = rng.gamma(0.8, 50.0, size=4_000)
        values = {
            "list": base.tolist(),
            "int64": base.astype(np.int64),
            "float32": base.astype(np.float32),
            "strided": base[::2],
        }[kind]
        as_float = np.asarray(values, dtype=np.float64)
        c = float(as_float.mean()) * 1.01
        assert _bits(max_backlog(values, c)) == _bits(max_drawdown(as_float, c))
        assert type(max_backlog(values, c)) is float


def _per_row(matrix, capacity, buffer_bytes, backlog):
    """``run_slots`` once per row: the oracle of ``run_rows``."""
    rows = len(matrix)
    c, q, b = (np.broadcast_to(np.asarray(x, dtype=float), (rows,))
               for x in (capacity, buffer_bytes, backlog))
    return np.array([run_slots(matrix[r], float(c[r]), float(q[r]),
                               state=(float(b[r]), 0.0, 0.0, 0.0))
                     for r in range(rows)]).reshape(rows, 4)


def _fleet_rows(rng, rows, slots):
    """Clamp-dense rows with per-row grants and a carried backlog."""
    matrix = rng.gamma(0.8, 50.0, size=(rows, slots))
    capacity = matrix.mean(axis=1) * rng.uniform(0.95, 1.05, size=rows) if slots else \
        rng.uniform(1.0, 50.0, size=rows)
    buffer_bytes = rng.uniform(0.0, 400.0, size=rows)
    backlog = rng.uniform(0.0, 300.0, size=rows) * (rng.random(rows) < 0.7)
    return matrix, capacity, buffer_bytes, backlog


class TestRowFoldMatchesRunSlots:
    """``run_rows`` against per-row ``run_slots``, bit for bit."""

    @pytest.mark.parametrize("rows,slots", [(32, 80), (7, 1), (5, 0), (0, 40), (0, 0), (3, 5_000)])
    def test_shapes(self, rng, rows, slots):
        matrix, c, q, b = _fleet_rows(rng, rows, slots)
        got = run_rows(matrix, c, q, b)
        assert got.shape == (rows, 4)
        assert got.tobytes() == _per_row(matrix, c, q, b).tobytes()

    def test_infinite_buffer(self, rng):
        matrix, c, _, b = _fleet_rows(rng, 16, 100)
        got = run_rows(matrix, c, np.inf, b)
        assert got.tobytes() == _per_row(matrix, c, np.inf, b).tobytes()
        assert np.all(got[:, 1] == 0.0)

    def test_mixed_buffers_and_scalar_grants(self, rng):
        matrix, _, q, b = _fleet_rows(rng, 12, 60)
        q[::3] = np.inf
        got = run_rows(matrix, 40.0, q, b)
        assert got.tobytes() == _per_row(matrix, 40.0, q, b).tobytes()

    def test_nan_arrivals(self, rng):
        matrix, c, q, b = _fleet_rows(rng, 6, 50)
        matrix[1, 10] = np.nan
        matrix[4, :] = np.nan
        got = run_rows(matrix, c, q, b)
        assert got.tobytes() == _per_row(matrix, c, q, b).tobytes()

    def test_non_contiguous_input(self, rng):
        matrix, c, q, b = _fleet_rows(rng, 10, 120)
        strided = matrix[::2, ::3]
        assert not strided.flags.c_contiguous
        got = run_rows(strided, c[::2], q[::2], b[::2])
        assert got.tobytes() == _per_row(strided, c[::2], q[::2], b[::2]).tobytes()
        transposed = matrix[:, :10].T
        c10, q10, b10 = c[:10], q[:10], b[:10]
        got = run_rows(transposed, c10, q10, b10)
        assert got.tobytes() == _per_row(transposed, c10, q10, b10).tobytes()

    def test_rejects_one_dimensional_arrivals(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            run_rows(np.ones(5), 1.0, 1.0, 0.0)


class TestKernelSelection:
    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")
    def test_compiled_kernel_is_in_use(self):
        # With a compiler present the fast path must not silently turn
        # off: the loaded fold is a ctypes function, not False.
        run_slots(np.ones(3), 1.0, 1.0)
        assert slotfluid._KERNEL.fold, "gcc is on PATH but run_slots folds in Python"
        assert slotfluid._KERNEL.fold_rows, "gcc is on PATH but run_rows folds in Python"
        assert slotfluid._KERNEL.drawdown, "gcc is on PATH but the drawdown runs in numpy"
        assert slotfluid._KERNEL.lookup, "gcc is on PATH but the table lookup runs in numpy"

    def test_missing_compiler_warns_once_and_falls_back(self, rng, tmp_path,
                                                       monkeypatch, caplog):
        assert slotfluid._KERNEL is _kernel._KERNEL
        matrix, c, q, b = _fleet_rows(rng, 9, 70)
        q[::2] = np.inf
        want_rows = _per_row(matrix, c, q, b)
        monkeypatch.setattr(slotfluid._KERNEL, "fold", None)
        monkeypatch.setattr(slotfluid._KERNEL, "fold_rows", None)
        monkeypatch.setattr(slotfluid._KERNEL, "drawdown", None)
        monkeypatch.setattr(slotfluid._KERNEL, "lookup", None)
        monkeypatch.setattr(_kernel, "_CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "_CC", str(tmp_path / "no-such-cc"))
        a = rng.gamma(0.8, 10.0, size=2_000)
        table = TabulatedDistribution.from_distribution(
            GammaParetoHybrid(27791.0, 6254.0, 12.42), n_points=10_000)
        u = rng.random(5_000)
        with caplog.at_level(logging.WARNING, logger="repro.kernel"):
            backlog = max_backlog(a, 8.1)
            first = run_slots(a, 8.1, 30.0)
            losses = np.zeros(a.size)
            second = run_slots(a, 8.1, 30.0, loss_series=losses)
            capacity = zero_loss_capacity(a, 30.0)
            quantiles = table.ppf(u)
            rows = run_rows(matrix, c, q, b)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "\n" not in warnings[0].getMessage()
        assert slotfluid._KERNEL.fold is False
        assert slotfluid._KERNEL.fold_rows is False
        assert slotfluid._KERNEL.drawdown is False
        assert slotfluid._KERNEL.lookup is False
        assert rows.tobytes() == want_rows.tobytes()
        assert quantiles.tobytes() == np.interp(u, table._ppf_q, table._ppf_x).tobytes()
        want, want_losses = _oracle(a, 8.1, 30.0)
        np.testing.assert_array_equal(first, want)
        _assert_same_fold(second, losses, want, want_losses)
        assert _bits(backlog) == _bits(max_drawdown(a, 8.1))
        assert _bits(capacity) == _bits(_numpy_zero_loss_capacity(a, 30.0))


def _numpy_zero_loss_capacity(a, q, rel_tol=1e-4):
    """The bisection of ``zero_loss_capacity`` on the numpy drawdown."""
    lo, hi = float(np.mean(a)), float(np.max(a))
    if max_drawdown(a, lo) <= q:
        return lo
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if max_drawdown(a, mid) <= q:
            hi = mid
        else:
            lo = mid
    return hi


class TestLossSeriesBoundary:
    """A loss buffer the C loop could overrun is refused before folding."""

    @staticmethod
    def _read_only(n):
        out = np.zeros(n)
        out.flags.writeable = False
        return out

    @pytest.mark.parametrize("bad, message", [
        (np.zeros(4), "cannot hold 5 slots"),
        (np.zeros(5, dtype=np.float32), "must be a float64 ndarray"),
        (np.zeros(10)[::2], "C-contiguous"),
        (_read_only(5), "read-only"),
    ], ids=["short", "float32", "strided", "read-only"])
    def test_bad_loss_series_raises_before_folding(self, bad, message):
        before = bad.copy()
        with pytest.raises(ValueError, match=message) as info:
            run_slots(np.full(5, 10.0), 2.0, 5.0, loss_series=bad)
        assert "\n" not in str(info.value)
        np.testing.assert_array_equal(bad, before)

    @pytest.mark.parametrize("bad, message", [
        (np.zeros(4), "backlog_series of shape \\(4,\\) cannot hold 5 slots"),
        (np.zeros(5, dtype=np.float32), "backlog_series must be a float64"),
        (np.zeros(10)[::2], "backlog_series must be C-contiguous"),
        (_read_only(5), "backlog_series is read-only"),
    ], ids=["short", "float32", "strided", "read-only"])
    def test_bad_backlog_series_raises_before_folding(self, bad, message):
        before = bad.copy()
        losses = np.zeros(5)
        with pytest.raises(ValueError, match=message) as info:
            run_slots(np.full(5, 10.0), 2.0, 5.0, loss_series=losses,
                      backlog_series=bad)
        assert "\n" not in str(info.value)
        np.testing.assert_array_equal(bad, before)
        assert not losses.any()


class TestStateThreading:
    def test_chunked_state_resume(self, rng):
        # Carrying (backlog, lost, peak, total) across arbitrary chunk
        # boundaries must match one whole-series call.
        a = rng.gamma(2.0, 10.0, size=30_000)
        whole = run_slots(a, 18.0, 70.0)
        for chunk in (777, 3_333, 8_192):
            state = (0.0, 0.0, 0.0, 0.0)
            for start in range(0, a.size, chunk):
                state = run_slots(a[start : start + chunk], 18.0, 70.0, state=state)
            np.testing.assert_array_equal(state, whole)

    def test_nonzero_initial_state(self, rng):
        a = _integer_arrivals(rng, 5_000)
        state = (33.0, 12.0, 40.0, 500.0)
        reference, _, _ = _loop_reference(a, 21.0, 80.0, state=state)
        np.testing.assert_array_equal(run_slots(a, 21.0, 80.0, state=state), reference)

    def test_empty_input_returns_state(self):
        state = (3.0, 1.0, 4.0, 9.0)
        assert run_slots(np.empty(0), 5.0, 10.0, state=state) == state


class TestFifoRun:
    def test_fifo_run_matches_slot_step_loop(self, rng):
        a = _integer_arrivals(rng, 6_000, scale=30)
        disc = FIFODiscipline(14.0, 48.0)
        disc.register("video")
        result = disc.run(a[None])
        backlog = 0.0
        served, lost, trajectory = [], [], []
        for arrival in a.tolist():
            backlog, s, drop = slot_step(backlog, arrival, 14.0, 48.0)
            served.append(s)
            lost.append(drop)
            trajectory.append(backlog)
        assert disc.backlog == backlog
        assert result.backlog.tolist() == trajectory
        assert result.served_total.tolist() == result.served[0].tolist() == served
        assert result.lost_total.tolist() == result.lost[0].tolist() == lost

    def test_fifo_run_needs_one_row_per_flow(self):
        port = FIFODiscipline(10.0, 10.0)
        port.register("a")
        port.register("b")
        with pytest.raises(ValueError, match="one row per registered flow"):
            port.run(np.zeros(4))
