"""Tier-1 checks for the slot-fluid queue kernel.

``run_slots`` (the array entry point, folding through the compiled C
loop) and ``fold_slots`` (the Python loop that is its fallback and its
oracle) must reproduce the recursion spelled out slot by slot through
``slot_step``: the golden anchor checks the loss *series* and the full
backlog trajectory, not just the summary tuple.  The compiled fold must
equal the oracle bit for bit on clamp-dense inputs, the state tuple must
resume across arbitrary chunk boundaries, and the FIFO discipline's
batched path must equal its own ``step()`` loop.
"""

import logging
import shutil

import numpy as np
import pytest

from repro.net.sched import FIFODiscipline
from repro.simulation import slotfluid
from repro.simulation.slotfluid import fold_slots, run_slots, slot_step


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


class TestKernelSelection:
    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")
    def test_compiled_kernel_is_in_use(self):
        # With a compiler present the fast path must not silently turn
        # off: the loaded fold is a ctypes function, not False.
        run_slots(np.ones(3), 1.0, 1.0)
        assert slotfluid._KERNEL.fold, "gcc is on PATH but run_slots folds in Python"

    def test_missing_compiler_warns_once_and_falls_back(self, rng, tmp_path,
                                                       monkeypatch, caplog):
        monkeypatch.setattr(slotfluid._KERNEL, "fold", None)
        monkeypatch.setattr(slotfluid, "_CACHE_DIR", tmp_path)
        monkeypatch.setattr(slotfluid, "_CC", str(tmp_path / "no-such-cc"))
        a = rng.gamma(0.8, 10.0, size=2_000)
        with caplog.at_level(logging.WARNING, logger="repro.simulation"):
            first = run_slots(a, 8.1, 30.0)
            losses = np.zeros(a.size)
            second = run_slots(a, 8.1, 30.0, loss_series=losses)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "\n" not in warnings[0].getMessage()
        assert slotfluid._KERNEL.fold is False
        want, want_losses = _oracle(a, 8.1, 30.0)
        np.testing.assert_array_equal(first, want)
        _assert_same_fold(second, losses, want, want_losses)


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


class TestFifoStepMany:
    def test_fifo_step_many_matches_step_loop(self, rng):
        a = _integer_arrivals(rng, 6_000, scale=30)
        loop = FIFODiscipline(14.0, 48.0)
        loop.register("video")
        lost = 0.0
        peak = 0.0
        for arrival in a:
            result = loop.step({"video": float(arrival)})
            lost += result.lost_total
            peak = max(peak, result.backlog)
        bulk = FIFODiscipline(14.0, 48.0)
        bulk.register("video")
        got = bulk.step_many(a)
        assert got["backlog"] == loop.backlog
        assert got["lost"] == lost
        assert got["peak"] == peak
        assert got["offered"] == float(a.sum())

    def test_fifo_step_many_requires_single_flow(self):
        port = FIFODiscipline(10.0, 10.0)
        port.register("a")
        port.register("b")
        with pytest.raises(ValueError, match="exactly one registered flow"):
            port.step_many(np.zeros(4))
