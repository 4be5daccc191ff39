"""Streaming-pipeline benchmarks: throughput per backend, the eq. 13
table lookup and transform per sample, and the 10M-sample
bounded-memory acceptance run.

Timings use ``time.perf_counter`` directly (a stream is consumed once,
so the repeat-calling benchmark fixture does not fit); each test folds
its samples/sec into ``BENCH_stream.json`` at the repo root so the
numbers ride along with the PR.

The throughput hierarchy this records is the paper's Section 4 story:
exact Hosking synthesis is O(n^2) (the "10 hours for 171,000 points"
bottleneck), while the FFT block sources generate and transform
millions of samples per second in constant memory.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy import special

from repro.distributions.hybrid import GammaParetoHybrid
from repro.obs.bench import write_bench
from repro.stream import (
    BlockFGNSource,
    HoskingSource,
    OnlineMoments,
    ParallelSources,
    Stream,
    StreamingMarginalTransform,
    StreamingQueue,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
TARGET = GammaParetoHybrid(27_791.0, 6_254.0, 12.0)

_ENTRIES = []


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge every recorded rate into BENCH_stream.json after the run.

    The timestamp comes from the environment (CI passes its pipeline
    stamp via ``BENCH_TIMESTAMP``); locally it stays null so the file
    is a pure function of the measurements.
    """
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_stream.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


def _timed_drain(stream, n, name, budget=None):
    moments = OnlineMoments()
    start = time.perf_counter()
    stream.drain(moments)
    elapsed = time.perf_counter() - start
    assert moments.count == n
    entry = {
        "name": name,
        "value": round(n / elapsed),
        "unit": "samples/s",
        "higher_is_better": True,
        "context": {"samples": n, "seconds": round(elapsed, 4)},
    }
    if budget is not None:
        entry["budget"] = budget
    _ENTRIES.append(entry)
    return moments, elapsed


class TestBackendThroughput:
    def test_paxson_transformed(self):
        n, chunk = 1_000_000, 65_536
        src = BlockFGNSource(0.8, block_size=chunk, overlap=1024, backend="paxson")
        stream = Stream.from_source(src, n, chunk, rng=np.random.default_rng(0)).transform(
            TARGET, method="table"
        )
        moments, elapsed = _timed_drain(stream, n, "paxson_transformed_1m", budget=50_000)
        assert moments.mean == pytest.approx(27_791.0, rel=0.05)
        assert n / elapsed > 50_000  # loose floor; records the real rate

    def test_davies_harte_transformed(self):
        n, chunk = 1_000_000, 65_536
        src = BlockFGNSource(0.8, block_size=chunk, overlap=1024, backend="davies-harte")
        stream = Stream.from_source(src, n, chunk, rng=np.random.default_rng(1)).transform(
            TARGET, method="table"
        )
        moments, elapsed = _timed_drain(stream, n, "davies_harte_transformed_1m")
        assert moments.mean == pytest.approx(27_791.0, rel=0.05)

    def test_hosking_transformed(self):
        """Exact synthesis: O(n^2), so the benchmark stays at 16k."""
        n, chunk = 16_384, 4096
        stream = Stream.from_source(
            HoskingSource(hurst=0.8), n, chunk, rng=np.random.default_rng(2)
        ).transform(TARGET, method="table")
        # ~28k samples/s on the reference machine; the floor sits well
        # below so only an order-of-magnitude regression trips it.
        moments, _ = _timed_drain(stream, n, "hosking_transformed_16k",
                                  budget=8_000)
        assert moments.mean == pytest.approx(27_791.0, rel=0.1)

    def test_parallel_sources(self):
        """Four fGn sources on the worker pool, summed and transformed."""
        n, chunk = 1_000_000, 65_536
        sources = [
            BlockFGNSource(0.8, block_size=chunk, overlap=1024, backend="paxson")
            for _ in range(4)
        ]
        from repro.distributions.normal import Normal

        stream = ParallelSources(sources).stream(
            n, chunk, rng=np.random.default_rng(3)
        ).transform(TARGET, source=Normal(0.0, 2.0), method="table")
        moments, _ = _timed_drain(stream, n, "parallel_4_sources_transformed_1m")
        assert moments.mean == pytest.approx(27_791.0, rel=0.05)


def _best_seconds(call, repeats=5):
    """The fastest of ``repeats`` untraced runs of ``call()``, after one warm-up."""
    call()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


class TestTableTransform:
    """The paper's 10,000-point inverse-CDF table (eq. 13), per sample."""

    def test_table_lookup_ns_per_sample(self):
        table = StreamingMarginalTransform(TARGET, method="table")._table
        u = np.random.default_rng(5).random(1_000_000)
        seconds = _best_seconds(lambda: table.ppf(u))
        _ENTRIES.append({
            "name": "table_lookup_ns_per_sample",
            "value": round(seconds / u.size * 1e9, 2),
            "unit": "ns/sample",
            "higher_is_better": False,
            "context": {"samples": u.size, "table_nodes": int(table._ppf_q.size),
                        "input": "uniform u in [0, 1)", "best_of": 5},
        })

    def test_table_transform_ns_per_sample(self):
        chunk, chunks = 65_536, 16
        transform = StreamingMarginalTransform(TARGET, method="table")
        table, source = transform._table, transform.source
        rng = np.random.default_rng(6)
        xs = [rng.standard_normal(chunk) for _ in range(chunks)]
        us = [source.cdf(x) for x in xs]
        tiny, top = np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg
        per_sample = chunk * chunks / 1e9
        whole = _best_seconds(lambda: [transform(x) for x in xs])
        erf = _best_seconds(lambda: [special.erf(x / np.sqrt(2.0)) for x in xs])
        lookup = _best_seconds(lambda: [table.ppf_clipped(u, tiny, top) for u in us])
        _ENTRIES.append({
            "name": "table_transform_ns_per_sample",
            "value": round(whole / per_sample, 2),
            "unit": "ns/sample",
            "higher_is_better": False,
            "context": {"chunk": chunk, "chunks": chunks, "best_of": 5,
                        "erf_ns_per_sample": round(erf / per_sample, 2),
                        "clip_and_lookup_ns_per_sample": round(lookup / per_sample, 2),
                        "split": "erf: scipy.special.erf of the chunk; clip_and_lookup: "
                                 "TabulatedDistribution.ppf_clipped of its cdf"},
        })


class TestTenMillionBoundedMemory:
    def test_ten_million_samples_constant_memory(self):
        """ISSUE acceptance: >= 10M transformed samples while the traced
        allocation peak stays orders of magnitude below the 80 MB the
        materialized series would need."""
        n, chunk = 10_000_000, 65_536
        src = BlockFGNSource(0.8, block_size=chunk, overlap=1024, backend="paxson")
        stream = (
            Stream.from_source(src, n, chunk, rng=np.random.default_rng(4))
            .transform(TARGET, method="table")
        )
        moments = OnlineMoments()
        queue = StreamingQueue(1.1 * 27_791.0, 20.0 * 27_791.0)
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        start = time.perf_counter()
        stream.drain(moments, queue)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert moments.count == n
        assert queue.slots_seen == n
        peak_mb = (peak - baseline) / 1e6
        assert peak_mb < 20.0  # full series would be 80 MB
        result = queue.result()
        assert 0.0 < result.loss_rate < 0.1  # a live lossy operating point
        _ENTRIES.append({
            "name": "ten_million_bounded",
            "value": round(n / elapsed),
            "unit": "samples/s",
            "higher_is_better": True,
            "context": {
                "samples": n,
                "seconds": round(elapsed, 2),
                "traced_peak_mb": round(peak_mb, 2),
                "loss_rate": round(result.loss_rate, 6),
            },
        })
