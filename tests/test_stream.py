"""Tests for the constant-memory streaming pipeline (repro.stream).

The load-bearing properties are exactness ones: chunked generation,
transform and queueing must reproduce their batch counterparts
bit-for-bit (or to machine precision) for *any* chunking, so the
streaming pipeline can replace the batch path wherever memory demands
it without changing a single result.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernel import row_sums
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.hosking import hosking_farima
from repro.core.transform import marginal_transform
from repro.qa import stats as qa
from tests.qa_budget import CHECK_ALPHA
from repro.distributions.hybrid import GammaParetoHybrid
from repro.distributions.normal import Normal
from repro.simulation.queue import simulate_queue
from repro.stream import (
    BlockFGNSource,
    HoskingSource,
    OnlineMoments,
    ParallelSources,
    Stream,
    StreamingQueue,
    StreamingVarianceTime,
    make_source,
    merge_streams,
)

TARGET = GammaParetoHybrid(27_791.0, 6_254.0, 12.0)


def _from_array(x, chunk_size=65_536):
    """An in-memory series replayed as a stream of ``chunk_size`` chunks."""
    x = np.asarray(x, dtype=float)
    return Stream((x[i : i + chunk_size] for i in range(0, x.size, chunk_size)), n=x.size)


def _to_array(stream):
    """The whole stream in memory."""
    pieces = list(stream)
    return np.concatenate(pieces) if pieces else np.zeros(0)


class TestStreamBasics:
    def test_from_array_roundtrip(self):
        x = np.arange(1000.0)
        assert np.array_equal(_to_array(_from_array(x, 64)), x)

    def test_rechunk_sizes(self):
        chunks = list(_from_array(np.arange(1000.0), 64).rechunk(300))
        assert [c.size for c in chunks] == [300, 300, 300, 100]

    def test_scale_shift(self):
        x = np.arange(100.0)
        out = _to_array(_from_array(x, 7).scale(2.0).shift(1.0))
        np.testing.assert_array_equal(out, 2.0 * x + 1.0)

    def test_single_use(self):
        s = _from_array(np.arange(10.0), 4)
        _to_array(s)
        assert _to_array(s).size == 0

    def test_observe_and_drain(self):
        x = np.arange(500.0)
        om = OnlineMoments()
        passed = _to_array(_from_array(x, 33).observe(om))
        assert np.array_equal(passed, x)
        assert om.count == 500
        om2 = OnlineMoments()
        _from_array(x, 33).drain(om2)
        assert om2.count == 500


class TestHoskingSource:
    def test_matches_batch_exactly(self):
        ref = hosking_farima(800, hurst=0.8, rng=np.random.default_rng(5))
        out = _to_array(Stream.from_source(
            HoskingSource(hurst=0.8), 800, 129, rng=np.random.default_rng(5)
        ))
        np.testing.assert_array_equal(out, ref)

    @given(chunk=st.integers(min_value=1, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_chunking_invariant(self, chunk):
        ref = hosking_farima(300, hurst=0.7, rng=np.random.default_rng(11))
        out = _to_array(Stream.from_source(
            HoskingSource(hurst=0.7), 300, chunk, rng=np.random.default_rng(11)
        ))
        np.testing.assert_array_equal(out, ref)

    def test_fresh_realization_per_call(self):
        src = HoskingSource(hurst=0.8)
        a = np.concatenate(list(src.chunks(200, 64, rng=np.random.default_rng(1))))
        b = np.concatenate(list(src.chunks(200, 64, rng=np.random.default_rng(1))))
        np.testing.assert_array_equal(a, b)


class TestBlockFGNSource:
    @pytest.mark.parametrize("backend", ["paxson", "davies-harte"])
    def test_marginal_statistics(self, backend):
        """Mean via a z-test with the exact fGn sample-mean SE
        (sigma * n^(H-1)); variance via TOST over per-segment mean
        squares (the process mean is 0, so E[mean(x^2)] = 1 exactly)."""
        n = 60_000
        src = BlockFGNSource(0.8, block_size=8192, overlap=256, backend=backend)
        x = _to_array(Stream.from_source(src, n, 8192, rng=np.random.default_rng(3)))
        mean_squares = [float(np.mean(seg**2)) for seg in np.array_split(x, 8)]
        qa.require(
            qa.z_test(
                float(np.mean(x)), 0.0, qa.fgn_mean_std_error(n, 0.8),
                alpha=1e-3, name=f"block-fGn mean ({backend})",
            ),
            qa.equivalence_check(
                mean_squares, 1.0, margin=0.15, alpha=1e-3,
                name=f"block-fGn variance ({backend})",
            ),
        )

    def test_seam_preserves_variance(self):
        """The cos/sin cross-fade must not dent the variance at seams:
        TOST over per-seam mean squares (E[mean(x^2)] = 1 exactly when
        the fade preserves variance) replaces the old rel=0.15 band."""
        src = BlockFGNSource(0.8, block_size=2048, overlap=128, backend="paxson")
        x = _to_array(Stream.from_source(src, 2048 * 40, 2048, rng=np.random.default_rng(8)))
        seam_mean_squares = [
            float(np.mean(x[k * 2048 : k * 2048 + 128] ** 2)) for k in range(1, 40)
        ]
        qa.require(
            qa.equivalence_check(
                seam_mean_squares, 1.0, margin=0.15, alpha=1e-3,
                name="cross-fade seam variance",
            )
        )

    def test_deterministic(self):
        src = BlockFGNSource(0.8, block_size=1024, overlap=64)
        a = np.concatenate(list(src.chunks(5000, 999, rng=np.random.default_rng(2))))
        b = np.concatenate(list(src.chunks(5000, 999, rng=np.random.default_rng(2))))
        np.testing.assert_array_equal(a, b)

    def test_zero_overlap(self):
        src = BlockFGNSource(0.8, block_size=1024, overlap=0)
        x = np.concatenate(list(src.chunks(3000, 1000, rng=np.random.default_rng(2))))
        assert x.size == 3000

    def test_hurst_recoverable(self):
        from repro.analysis.hurst import variance_time

        src = BlockFGNSource(0.8, block_size=16_384, overlap=512, backend="paxson")
        x = _to_array(Stream.from_source(src, 2**17, 16_384, rng=np.random.default_rng(7)))
        h = variance_time(x).hurst
        assert 0.68 < h < 0.92

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            BlockFGNSource(0.8, block_size=100, overlap=100)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            BlockFGNSource(0.8, backend="hosking")

    def test_make_source(self):
        assert isinstance(make_source("hosking"), HoskingSource)
        assert make_source("davies-harte").backend == "davies-harte"
        assert make_source("paxson").backend == "paxson"
        with pytest.raises(ValueError):
            make_source("exact")


class TestStreamingTransform:
    @given(chunk=st.integers(min_value=1, max_value=700))
    @settings(max_examples=10, deadline=None)
    def test_exact_method_bitwise_equal(self, chunk):
        x = np.random.default_rng(0).standard_normal(600)
        batch = marginal_transform(x, TARGET, source=Normal(0.0, 1.0))
        streamed = _to_array(_from_array(x, chunk).transform(TARGET))
        np.testing.assert_array_equal(streamed, batch)

    def test_table_method_bitwise_equal(self):
        x = np.random.default_rng(1).standard_normal(2000)
        batch = marginal_transform(x, TARGET, source=Normal(0.0, 1.0), method="table")
        streamed = _to_array(_from_array(x, 313).transform(TARGET, method="table"))
        np.testing.assert_array_equal(streamed, batch)

    def test_full_pipeline_matches_model_generate(self):
        """Streamed Hosking + transform == VBRVideoModel.generate."""
        from repro.core.model import VBRVideoModel

        model = VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)
        ref = model.generate(500, rng=np.random.default_rng(21), generator="hosking")
        streamed = (
            _to_array(Stream.from_source(
                HoskingSource(hurst=0.8), 500, 123, rng=np.random.default_rng(21)
            )
            .transform(model.marginal))
        )
        np.testing.assert_array_equal(streamed, ref)

    def test_requires_normal_source(self):
        from repro.stream.transform import StreamingMarginalTransform

        with pytest.raises(TypeError):
            StreamingMarginalTransform(TARGET, source=TARGET)

    def test_rejects_unknown_method(self):
        from repro.stream.transform import StreamingMarginalTransform

        with pytest.raises(ValueError):
            StreamingMarginalTransform(TARGET, method="spline")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["exact", "table"])
    def test_rejects_non_finite_chunk(self, bad, method):
        from repro.stream.transform import StreamingMarginalTransform

        chunk = np.zeros(10)
        chunk[3] = bad
        with pytest.raises(ValueError, match="^chunk must not contain NaN or infinite values$"):
            StreamingMarginalTransform(TARGET, method=method)(chunk)


class TestStreamingQueue:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        chunk=st.integers(min_value=1, max_value=2500),
        capacity=st.floats(min_value=0.5, max_value=30.0),
        buffer=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_to_batch(self, seed, chunk, capacity, buffer):
        a = np.random.default_rng(seed).uniform(0, 25, size=2000)
        batch = simulate_queue(a, capacity, buffer)
        queue = StreamingQueue(capacity, buffer)
        for piece in _from_array(a, chunk):
            queue.push(piece)
        streamed = queue.result()
        assert streamed.total_bytes == batch.total_bytes
        assert streamed.lost_bytes == batch.lost_bytes
        assert streamed.final_backlog == batch.final_backlog
        assert streamed.peak_backlog == batch.peak_backlog

    def test_seed_trace_exact(self, small_series):
        """Acceptance: the chunked queue reproduces the seed-trace stats."""
        mean_rate = float(np.mean(small_series))
        capacity = 1.1 * mean_rate
        buffer = 5.0 * mean_rate
        batch = simulate_queue(small_series, capacity, buffer)
        assert batch.lost_bytes > 0  # a lossy operating point
        queue = StreamingQueue(capacity, buffer)
        for piece in _from_array(small_series, 4096):
            queue.push(piece)
        streamed = queue.result()
        assert streamed == batch

    def test_push_returns_chunk_loss(self):
        queue = StreamingQueue(2.0, 5.0)
        assert queue.push(np.array([10.0, 10.0])) == pytest.approx(11.0)
        assert queue.push(np.array([0.0, 0.0])) == 0.0
        assert queue.slots_seen == 4

    def test_intermediate_results(self):
        a = np.random.default_rng(5).uniform(0, 20, size=1000)
        queue = StreamingQueue(8.0, 40.0)
        queue.push(a[:400])
        partial = queue.result()
        full_partial = simulate_queue(a[:400], 8.0, 40.0)
        assert partial.lost_bytes == full_partial.lost_bytes
        queue.push(a[400:])
        assert queue.result() == simulate_queue(a, 8.0, 40.0)

    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError):
            StreamingQueue(1.0, 1.0).push(np.array([-1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError):
            StreamingQueue(bad, 1.0)
        with pytest.raises(ValueError):
            StreamingQueue(1.0, bad)


class TestMergeAndParallel:
    def test_merge_equals_sum(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 10, size=(2, 5000))
        merged = _to_array(merge_streams(
            [_from_array(a, 123), _from_array(b, 777)], chunk_size=500
        ))
        np.testing.assert_allclose(merged, a + b)

    def test_merge_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            merge_streams(
                [_from_array(np.zeros(10), 4), _from_array(np.zeros(12), 4)]
            )

    def test_merge_length_ignores_unknown_lengths(self):
        """The merged length is the one known length, in either order."""
        x = np.arange(8.0)

        def unknown():
            return Stream(iter([np.ones(8)]))

        for streams in (
            [unknown(), _from_array(x)],
            [_from_array(x), unknown()],
        ):
            merged = merge_streams(streams)
            assert merged.n == 8
            np.testing.assert_array_equal(_to_array(merged), x + 1.0)
        assert merge_streams([unknown(), unknown()]).n is None

    def test_parallel_matches_sequential(self):
        """The summed sources == the sum of per-source streams, bit for bit."""
        sources = [BlockFGNSource(0.8, block_size=2048, overlap=64) for _ in range(3)]
        agg = _to_array(ParallelSources(sources).stream(
            10_000, 2048, rng=np.random.default_rng(6)
        ))
        children = np.random.default_rng(6).spawn(3)
        expected = np.zeros(10_000)
        for child in children:
            src = BlockFGNSource(0.8, block_size=2048, overlap=64)
            expected += np.concatenate(list(src.chunks(10_000, 2048, rng=child)))
        np.testing.assert_array_equal(agg, expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParallelSources([])


class TestOnlineMoments:
    @given(chunk=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=15, deadline=None)
    def test_matches_numpy(self, chunk):
        x = np.random.default_rng(12).uniform(-5, 5, size=2500)
        om = OnlineMoments()
        _from_array(x, chunk).drain(om)
        assert om.count == x.size
        assert om.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert om.variance == pytest.approx(np.var(x), rel=1e-10)
        assert om.minimum == np.min(x)
        assert om.maximum == np.max(x)
        assert om.total == pytest.approx(np.sum(x), rel=1e-12)

    def test_merge(self):
        x = np.random.default_rng(13).standard_normal(4000)
        left, right = OnlineMoments(), OnlineMoments()
        left.update(x[:1500])
        right.update(x[1500:])
        left.merge(right)
        assert left.count == 4000
        assert left.variance == pytest.approx(np.var(x), rel=1e-10)

    def test_empty_chunk_noop(self):
        om = OnlineMoments()
        om.update(np.zeros(0))
        assert om.count == 0


class TestStreamingVarianceTime:
    def test_matches_batch_on_dyadic_grid(self, fgn_path):
        """Same dyadic grid -> the same block-mean variances, so the
        fitted H agrees to rounding, not an approx band."""
        from repro.analysis.hurst import variance_time

        svt = StreamingVarianceTime()
        _from_array(fgn_path, 1777).drain(svt)
        result = svt.hurst()
        m_batch = [m for m in result.m_values[result.fit_mask]]
        batch = variance_time(fgn_path, m_values=m_batch, fit_range=(min(m_batch), max(m_batch)))
        np.testing.assert_allclose(
            result.normalized_variances[result.fit_mask],
            batch.normalized_variances[batch.fit_mask],
            rtol=1e-9,
        )
        assert result.hurst == pytest.approx(batch.hurst, rel=1e-9)

    def test_recovers_hurst(self, fgn_path):
        svt = StreamingVarianceTime()
        _from_array(fgn_path, 4096).drain(svt)
        assert 0.7 < svt.hurst().hurst < 0.9

    def test_chunking_invariant(self, fgn_path):
        a, b = StreamingVarianceTime(), StreamingVarianceTime()
        _from_array(fgn_path, 100).drain(a)
        _from_array(fgn_path, 9999).drain(b)
        assert a.hurst().hurst == pytest.approx(b.hurst().hurst, rel=1e-9)

    def test_needs_data(self):
        with pytest.raises(ValueError):
            StreamingVarianceTime().hurst()


class _ReshapeMeanVarianceTime(StreamingVarianceTime):
    """The oracle: every level's block means by ``reshape(n_blocks, m).mean``."""

    def update(self, chunk):
        arr = np.asarray(chunk, dtype=float)
        if arr.size == 0:
            return self
        self._levels[0].update(arr)
        for j in range(1, self.MAX_LEVEL + 1):
            m = 1 << j
            stats = self._levels[j]
            rest = arr
            if self._partial_count[j]:
                need = m - self._partial_count[j]
                take = min(need, rest.size)
                self._partial_sum[j] += float(np.sum(rest[:take]))
                self._partial_count[j] += take
                rest = rest[take:]
                if self._partial_count[j] == m:
                    stats.update(np.array([self._partial_sum[j] / m]))
                    self._partial_sum[j] = 0.0
                    self._partial_count[j] = 0
            n_blocks = rest.size // m
            if n_blocks:
                stats.update(rest[: n_blocks * m].reshape(n_blocks, m).mean(axis=1))
                rest = rest[n_blocks * m :]
            if rest.size:
                self._partial_sum[j] += float(np.sum(rest))
                self._partial_count[j] += rest.size
        return self


def _state_bytes(svt):
    levels = [np.array([s.count, s.mean, s._m2, s.minimum, s.maximum, s.total]).tobytes()
              for s in svt._levels]
    return [svt._partial_sum.tobytes(), svt._partial_count.tobytes(), *levels]


class TestRowSumsMatchReshapeSum:
    """``repro._kernel.row_sums`` is numpy's ``reshape(-1, m).sum(axis=1)``
    byte for byte: sequential below 8 values, eight accumulators up to
    128, halves above, and numpy's starting 0.0 (signed zeros too)."""

    @staticmethod
    def _rows(rng, rows, m):
        a = rng.standard_normal(rows * m) * 10.0 ** rng.integers(-3, 9, size=rows * m)
        a[::5] = -0.0
        a[: 2 * m] = -0.0  # whole rows of -0.0 sum to 0.0
        a[2 * m : 3 * m] = rng.choice([0.0, -0.0], size=m)
        return a

    def test_every_row_length_to_128(self, rng):
        for m in range(1, 129):
            for rows in (0, 1, 3, 11):
                a = self._rows(rng, rows, m) if rows >= 3 else rng.standard_normal(rows * m)
                want = a.reshape(-1, m).sum(axis=1)
                assert row_sums(a, m).tobytes() == want.tobytes(), (m, rows)

    def test_non_finite_values(self, rng):
        for m in (3, 8, 100, 128):
            a = self._rows(rng, 5, m)
            a[m + 1] = np.inf
            a[3 * m], a[3 * m + 2] = np.inf, -np.inf
            a[4 * m + 2] = np.nan
            with np.errstate(invalid="ignore"):
                want = a.reshape(-1, m).sum(axis=1)
            assert row_sums(a, m).tobytes() == want.tobytes()

    def test_non_contiguous_input_and_bad_shapes(self, rng):
        a = rng.standard_normal(4_096)
        assert row_sums(a[::2], 8).tobytes() == a[::2].reshape(-1, 8).sum(axis=1).tobytes()
        for bad, m in ((a[:100], 8), (a, 0), (a, 256), (a.reshape(64, 64), 8)):
            with pytest.raises(ValueError, match="whole rows"):
                row_sums(bad, m)


class TestDyadicFoldMatchesReshapeMean:
    """The dyadic block sums leave every level's state byte-equal to
    the per-level ``reshape(...).mean(axis=1)`` update."""

    @staticmethod
    def _data(n):
        x = np.random.default_rng(25).gamma(0.8, 1e4, size=n)
        x[100:400] = -0.0  # numpy's row sums turn -0.0 into 0.0
        x[400:450] = 0.0
        return x

    @staticmethod
    def _assert_same(x, sizes):
        fast, oracle = StreamingVarianceTime(), _ReshapeMeanVarianceTime()
        start = 0
        for size in sizes:
            fast.update(x[start : start + size])
            oracle.update(x[start : start + size])
            start += size
        assert start == x.size
        assert _state_bytes(fast) == _state_bytes(oracle)

    @pytest.mark.parametrize("chunk", [1, 7, 100, 777, 1023, 1777, 4096, 9999,
                                       65536, 65537, 300_000])
    def test_fixed_chunk_sizes(self, chunk):
        x = self._data(3_000 if chunk < 100 else min(100 * chunk, 600_000))
        self._assert_same(x, [chunk] * (x.size // chunk) + [x.size % chunk])

    def test_random_partitions(self):
        x = self._data(400_000)
        sizes = np.random.default_rng(7).integers(1, 70_000, size=40)
        sizes = sizes[np.cumsum(sizes) <= x.size].tolist()
        self._assert_same(x, sizes + [x.size - sum(sizes)])

    def test_every_level_to_2_pow_22_inside_one_chunk(self):
        # A 300,001-sample lead-in offsets every level's first full
        # block, so each pair of half-block sums starts at index 1.
        x = self._data(300_001 + (1 << 22) + 12_345)
        self._assert_same(x, [300_001, x.size - 300_001])


@pytest.mark.tier2
class TestStreamingBatchEquivalence:
    """Seed-robust equivalence of the streaming estimators with their
    batch counterparts: both sides see the exact same numbers, so the
    checks are exact for *any* ``--qa-seed`` -- no statistical retry
    and no alpha budget needed."""

    def test_svt_matches_variance_time_on_dyadic_grid(self, seeded_rng):
        x = DaviesHarteGenerator(0.8).generate(2**15, rng=seeded_rng)
        svt = StreamingVarianceTime()
        _from_array(x, 1023).drain(svt)
        from repro.analysis.hurst import variance_time

        streamed = svt.hurst()
        grid = [int(m) for m in streamed.m_values]
        batch = variance_time(x, m_values=grid, fit_range=(min(grid), max(grid)))
        np.testing.assert_allclose(
            streamed.normalized_variances, batch.normalized_variances, rtol=1e-9
        )

    def test_svt_fit_subrange_matches_batch(self, seeded_rng):
        x = seeded_rng.standard_normal(2**14)
        svt = StreamingVarianceTime()
        _from_array(x, 777).drain(svt)
        from repro.analysis.hurst import variance_time

        streamed = svt.hurst()
        grid = [int(m) for m in streamed.m_values]
        batch = variance_time(x, m_values=grid)
        assert streamed.hurst == pytest.approx(batch.hurst, rel=1e-9)
        assert streamed.beta == pytest.approx(batch.beta, rel=1e-9)

    def test_online_moments_merge_is_associative(self, seeded_rng):
        x = seeded_rng.uniform(-5.0, 5.0, size=6001)
        parts = np.array_split(x, 3)

        def acc(arr):
            return OnlineMoments().update(arr)

        left = acc(parts[0]).merge(acc(parts[1])).merge(acc(parts[2]))
        right = acc(parts[0]).merge(acc(parts[1]).merge(acc(parts[2])))
        direct = acc(x)
        for om in (left, right):
            assert om.count == direct.count
            assert om.mean == pytest.approx(direct.mean, rel=1e-12)
            assert om.variance == pytest.approx(direct.variance, rel=1e-10)
            assert om.total == pytest.approx(direct.total, rel=1e-12)
            assert om.minimum == direct.minimum
            assert om.maximum == direct.maximum

    def test_online_moments_empty_merges(self, seeded_rng):
        x = seeded_rng.standard_normal(500)
        full = OnlineMoments().update(x)
        # empty <- full adopts every field; full <- empty is a no-op.
        adopted = OnlineMoments().merge(full)
        assert adopted.count == full.count
        assert adopted.mean == full.mean
        assert adopted.variance == full.variance
        assert adopted.minimum == full.minimum
        assert adopted.maximum == full.maximum
        before = (full.count, full.mean, full.variance, full.total)
        full.merge(OnlineMoments())
        assert (full.count, full.mean, full.variance, full.total) == before
        # empty <- empty stays a valid zero state.
        both = OnlineMoments().merge(OnlineMoments())
        assert both.count == 0
        assert both.variance == 0.0


@pytest.mark.tier3
class TestBoundedMemory:
    def test_two_million_transformed_samples_bounded(self):
        """Acceptance (scaled for tier-1): the pipeline never
        materializes the series.  2M float64 samples are 16 MB; the
        traced allocation peak must stay far below that."""
        n, chunk = 2_000_000, 65_536
        src = BlockFGNSource(0.8, block_size=chunk, overlap=1024, backend="paxson")
        stream = (
            Stream.from_source(src, n, chunk, rng=np.random.default_rng(1))
            .transform(TARGET, method="table")
        )
        moments = OnlineMoments()
        queue = StreamingQueue(30_000.0, 500_000.0)
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        stream.drain(moments, queue)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert moments.count == n
        assert queue.slots_seen == n
        assert peak - baseline < 8 * n  # < half the full-array footprint
        # And the output is real traffic: paper-like mean, some loss.
        assert moments.mean == pytest.approx(27_791.0, rel=0.05)
