"""Tests for layered coding and the two-priority queue."""

import numpy as np
import pytest

from repro.simulation.priority import simulate_priority_queue
from repro.simulation.queue import simulate_queue
from repro.video.layering import LayeredIntraframeCodec, layer_series
from repro.video.synthetic import SyntheticMovie


class TestLayerSeries:
    def test_totals_preserved(self, small_series):
        base, enh = layer_series(small_series, base_fraction=0.4)
        np.testing.assert_allclose(base + enh, small_series)

    def test_fraction_respected(self, small_series):
        base, _ = layer_series(small_series, base_fraction=0.4)
        assert base.sum() / small_series.sum() == pytest.approx(0.4, abs=0.01)

    def test_nonnegative(self, small_series):
        base, enh = layer_series(small_series, base_fraction=0.7)
        assert np.all(base >= 0)
        assert np.all(enh >= 0)

    def test_rejects_bad_fraction(self, small_series):
        with pytest.raises(ValueError):
            layer_series(small_series, base_fraction=1.0)


class TestLayeredCodec:
    @pytest.fixture(scope="class")
    def frame(self):
        rng = np.random.default_rng(3)
        yy, xx = np.mgrid[0:48, 0:64]
        img = 120 + 40 * np.sin(xx / 9.0) + rng.normal(0, 20, size=(48, 64))
        return np.clip(img, 0, 255).astype(np.uint8)

    def test_layer_split(self, frame):
        codec = LayeredIntraframeCodec(quant_step=16.0, n_base_coeffs=6)
        layered = codec.encode_frame_layered(frame)
        assert layered.base_bytes > 0
        assert layered.enhancement_bytes > 0
        assert layered.n_base_coeffs == 6

    def test_total_close_to_single_layer(self, frame):
        """Layering overhead is small (the paper's remark)."""
        plain = LayeredIntraframeCodec(quant_step=16.0, n_base_coeffs=6)
        layered = plain.encode_frame_layered(frame)
        single = plain.encode_frame(frame)
        overhead = layered.total_bytes / single.total_bytes
        assert 0.8 < overhead < 1.35

    def test_more_base_coeffs_bigger_base(self, frame):
        small = LayeredIntraframeCodec(quant_step=16.0, n_base_coeffs=3)
        large = LayeredIntraframeCodec(quant_step=16.0, n_base_coeffs=20)
        assert (
            large.encode_frame_layered(frame).base_fraction
            > small.encode_frame_layered(frame).base_fraction
        )

    def test_movie_layering(self):
        codec = LayeredIntraframeCodec(quant_step=16.0, n_base_coeffs=6)
        movie = SyntheticMovie(4, height=48, width=64, seed=2)
        base, enh = codec.encode_movie_layered(movie)
        assert base.shape == enh.shape == (4,)
        assert np.all(base > 0)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            LayeredIntraframeCodec(n_base_coeffs=64)


class TestPriorityQueue:
    def test_no_loss_with_ample_capacity(self, rng):
        h = rng.uniform(0, 3, size=500)
        low = rng.uniform(0, 3, size=500)
        result = simulate_priority_queue(h, low, capacity_per_slot=10.0, buffer_bytes=10.0)
        assert result.high_lost == 0.0
        assert result.low_lost == 0.0

    def test_low_priority_dropped_first(self, rng):
        h = rng.uniform(0, 5, size=2000)
        low = rng.uniform(0, 5, size=2000)
        result = simulate_priority_queue(h, low, capacity_per_slot=5.2, buffer_bytes=5.0)
        assert result.low_loss_rate > 0
        assert result.high_loss_rate < result.low_loss_rate

    def test_base_protected_when_base_fits(self, rng):
        """If the base layer alone fits the capacity, it loses nothing
        regardless of enhancement pressure."""
        h = rng.uniform(0, 2, size=2000)  # mean 1
        low = rng.uniform(0, 20, size=2000)  # massive overload
        result = simulate_priority_queue(h, low, capacity_per_slot=3.0, buffer_bytes=5.0)
        assert result.high_lost == 0.0
        assert result.low_loss_rate > 0.5

    def test_conservation(self, rng):
        h = rng.uniform(0, 5, size=1000)
        low = rng.uniform(0, 5, size=1000)
        result = simulate_priority_queue(h, low, 4.0, 15.0, return_series=True)
        assert result.high_loss_series.sum() == pytest.approx(result.high_lost)
        assert result.low_loss_series.sum() == pytest.approx(result.low_lost)
        assert result.high_lost <= result.high_offered
        assert result.low_lost <= result.low_offered

    def test_total_loss_close_to_fifo(self, rng):
        """Priorities redistribute loss between classes; the total is
        close to (never better than) the work-conserving FIFO's."""
        h = rng.uniform(0, 5, size=5000)
        low = rng.uniform(0, 5, size=5000)
        prio = simulate_priority_queue(h, low, 7.0, 30.0)
        fifo = simulate_queue(h + low, 7.0, 30.0)
        total_prio = prio.high_lost + prio.low_lost
        assert total_prio == pytest.approx(fifo.lost_bytes, rel=0.05)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            simulate_priority_queue([1.0], [1.0, 2.0], 1.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            simulate_priority_queue([-1.0], [1.0], 1.0, 1.0)


class TestLayeredTransportEndToEnd:
    def test_priority_protects_base_layer(self, small_series):
        """The Section 5.3 scenario: under pressure, priorities keep
        the base layer nearly loss-free while FIFO punishes both."""
        x = small_series[:10_000]
        base, enh = layer_series(x, base_fraction=0.4)
        capacity = float(np.mean(x)) * 1.02
        buffer_bytes = 50_000.0
        fifo = simulate_queue(x, capacity, buffer_bytes)
        prio = simulate_priority_queue(base, enh, capacity, buffer_bytes)
        assert fifo.loss_rate > 0
        assert prio.high_loss_rate < 0.1 * fifo.loss_rate
        assert prio.low_loss_rate > fifo.loss_rate


class TestPriorityQueueProperties:
    """Backfilled property wall: exact byte ledger and pushout order."""

    def test_byte_ledger_closes_exactly_for_integer_arrivals(self, rng):
        """offered == served + lost + final backlog, per layer, exactly:
        integer arrivals with integer capacity keep every intermediate
        value integral, so float arithmetic is exact."""
        for capacity, buffer_bytes in ((7.0, 20.0), (3.0, 0.0), (12.0, 5.0)):
            h = rng.integers(0, 8, size=1_500).astype(float)
            low = rng.integers(0, 8, size=1_500).astype(float)
            r = simulate_priority_queue(h, low, capacity, buffer_bytes)
            assert r.high_offered == r.high_served + r.high_lost + r.high_final_backlog
            assert r.low_offered == r.low_served + r.low_lost + r.low_final_backlog

    def test_byte_ledger_closes_for_float_arrivals(self, rng):
        h = rng.uniform(0, 5, size=2_000)
        low = rng.uniform(0, 5, size=2_000)
        r = simulate_priority_queue(h, low, 4.5, 12.0)
        assert r.high_offered == pytest.approx(
            r.high_served + r.high_lost + r.high_final_backlog, rel=1e-12)
        assert r.low_offered == pytest.approx(
            r.low_served + r.low_lost + r.low_final_backlog, rel=1e-12)

    def test_high_drops_only_after_low_is_empty(self, rng):
        """Replay the recursion slot by slot: whenever the simulator
        dropped a high-priority byte, the low-priority backlog must have
        been pushed out completely first."""
        h = rng.uniform(0, 9, size=3_000)
        low = rng.uniform(0, 3, size=3_000)
        capacity, q = 5.0, 8.0
        r = simulate_priority_queue(h, low, capacity, q, return_series=True)
        assert r.high_lost > 0.0  # the scenario actually exercises pushout
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
                assert r.high_loss_series[t] == pytest.approx(drop_hi, abs=1e-9)
                if drop_hi > 0.0:
                    assert backlog_lo == 0.0
            else:
                assert r.high_loss_series[t] == 0.0


class TestPriorityQueueIsThePriorityPort:
    """``simulate_priority_queue`` is the two-flow priority port of repro.net.

    The hand-written two-class loop it replaced pushed the leftover
    overflow out of the high class without clamping it to the high
    backlog, so a bufferless queue could end with a negative high
    backlog and drop more than was queued.
    """

    @staticmethod
    def _port_run(h, low, capacity, buffer_bytes):
        from repro.net import PriorityDiscipline

        disc = PriorityDiscipline(capacity, buffer_bytes)
        disc.register("high", priority=0)
        disc.register("low", priority=1)
        return disc, disc.run(np.array([h, low], dtype=float))

    @staticmethod
    def _cases():
        rng = np.random.default_rng(33)
        for trial in range(400):
            n = int(rng.integers(1, 61))
            h = rng.gamma(0.9, 1.0, size=n) * (rng.random(n) < 0.8)
            low = rng.gamma(0.9, 1.0, size=n) * (rng.random(n) < 0.8)
            capacity = float(rng.uniform(0.2, 2.0))
            buffer_bytes = 0.0 if trial % 2 else float(rng.uniform(0.0, 3.0))
            yield h, low, capacity, buffer_bytes

    def test_bufferless_overflow_is_clamped_to_the_high_backlog(self):
        r = simulate_priority_queue([0.1], [0.1], 0.05, 0.0)
        assert r.high_final_backlog == 0.0
        assert r.high_lost == 0.05
        assert r.low_lost == 0.1
        assert r.high_served + r.high_lost <= r.high_offered

    def test_no_class_goes_negative_or_loses_more_than_offered(self):
        for h, low, capacity, buffer_bytes in self._cases():
            r = simulate_priority_queue(h, low, capacity, buffer_bytes)
            for backlog, lost, offered in (
                (r.high_final_backlog, r.high_lost, r.high_offered),
                (r.low_final_backlog, r.low_lost, r.low_offered),
            ):
                assert backlog >= 0.0
                assert lost <= offered

    def test_equals_the_two_flow_priority_port_bit_for_bit(self):
        for h, low, capacity, buffer_bytes in self._cases():
            r = simulate_priority_queue(h, low, capacity, buffer_bytes,
                                        return_series=True)
            disc, port = self._port_run(h, low, capacity, buffer_bytes)
            assert r.high_loss_series.tobytes() == port.lost[0].tobytes()
            assert r.low_loss_series.tobytes() == port.lost[1].tobytes()
            sums = [float(np.add.accumulate(row)[-1])
                    for row in (port.lost[0], port.lost[1],
                                port.served[0], port.served[1])]
            assert [r.high_lost, r.low_lost, r.high_served, r.low_served] == sums
            held = [cls.backlog for cls in disc._classes.values()]
            assert [r.high_final_backlog, r.low_final_backlog] == held
            assert port.backlog[-1] == 0.0 + held[0] + held[1]
