"""Observability benchmarks: what the probes cost.

The obs contract is asymmetric: with the global flag off every probe
collapses to a single flag read (the instrumented hot paths must stay
within 1% of an unmetered pipeline), and with it on the per-chunk
granularity keeps the full tracing + metrics stack under 3% on the
paxson streaming path.  Both bounds are recorded -- with budgets, so a
regression fails ``repro obs bench-diff`` as well as this suite -- in
``BENCH_obs.json`` at the repo root.

Single runs of the streamed path vary several percent on a shared
machine, so the overhead comparisons interleave the variants and keep
each one's best of ten -- the minimum converges on the deterministic
floor, which is where a real per-chunk cost would show -- and carry
the suite's ``statistical_retry`` marker as a noise backstop.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.distributions.hybrid import GammaParetoHybrid
from repro.obs import metrics, trace
from repro.obs.bench import write_bench
from repro.stream import BlockFGNSource, OnlineMoments, Stream

REPO_ROOT = Path(__file__).resolve().parents[1]
TARGET = GammaParetoHybrid(27_791.0, 6_254.0, 12.0)

_ENTRIES = []

pytestmark = [
    pytest.mark.tier2,  # timing-sensitive: nightly, not PR gate
    pytest.mark.statistical_retry,
]


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge recorded costs into BENCH_obs.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_obs.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


def _paxson_run(n, chunk, seed, metered):
    """Drain an n-sample paxson -> marginal-transform stream, optionally
    with the CLI's per-stage metering attached, and return seconds."""
    src = BlockFGNSource(0.8, block_size=chunk, overlap=1024, backend="paxson")
    stream = Stream.from_source(src, n, chunk, rng=np.random.default_rng(seed))
    if metered:
        stream = stream.metered("source")
    stream = stream.transform(TARGET, method="table")
    if metered:
        stream = stream.metered("transform")
    moments = OnlineMoments()
    start = time.perf_counter()
    stream.drain(moments)
    elapsed = time.perf_counter() - start
    assert moments.count == n
    return elapsed


class TestSpanOverheadDisabled:
    def test_disabled_span_is_nanoseconds(self):
        """A disabled span is one flag read returning a shared null
        object; it must be cheap enough to leave in any hot path."""
        obs.disable()
        trace.reset()
        n = 1_000_000
        start = time.perf_counter()
        for _ in range(n):
            with trace.span("bench.noop"):
                pass
        per_call_ns = (time.perf_counter() - start) / n * 1e9
        assert not trace.snapshot()  # nothing recorded while disabled
        assert per_call_ns < 2_000  # generous bound; records the real cost
        _ENTRIES.append({
            "name": "span_disabled_ns_per_call",
            "value": round(per_call_ns, 1),
            "unit": "ns/call",
            "higher_is_better": False,
            "budget": 2_000,
        })


class TestStreamingOverhead:
    def test_paxson_overhead_budgets(self):
        """ISSUE acceptance: on the 1M-sample streamed paxson path the
        instrumentation costs < 1% while obs is disabled and < 3% with
        the full tracing + metrics stack enabled."""
        n, chunk = 1_000_000, 65_536
        obs.disable()
        _paxson_run(n, chunk, 0, metered=False)  # warm caches / allocator
        bare = disabled = enabled = float("inf")
        for _ in range(10):
            obs.disable()
            bare = min(bare, _paxson_run(n, chunk, 0, metered=False))
            disabled = min(disabled, _paxson_run(n, chunk, 0, metered=True))
            with obs.enabled():
                enabled = min(enabled, _paxson_run(n, chunk, 0, metered=True))
        trace.reset()
        metrics.registry().reset()

        disabled_overhead = disabled / bare - 1.0
        enabled_overhead = enabled / bare - 1.0
        assert disabled_overhead < 0.01, (
            f"disabled probes cost {disabled_overhead:.2%} "
            f"({bare:.3f}s -> {disabled:.3f}s)"
        )
        assert enabled_overhead < 0.03, (
            f"enabled obs cost {enabled_overhead:.2%} "
            f"({bare:.3f}s -> {enabled:.3f}s)"
        )
        # Negative overhead is timing noise; record 0 so the committed
        # baseline stays stable under the nightly relative diff (the
        # asserts above see the raw measurement).
        _ENTRIES.extend([
            {
                "name": "paxson_stream_obs_disabled",
                "value": round(n / disabled),
                "unit": "samples/s",
                "higher_is_better": True,
                "context": {"samples": n, "seconds": round(disabled, 4)},
            },
            {
                "name": "paxson_stream_obs_enabled",
                "value": round(n / enabled),
                "unit": "samples/s",
                "higher_is_better": True,
                "context": {"samples": n, "seconds": round(enabled, 4)},
            },
            {
                "name": "paxson_stream_disabled_overhead",
                "value": max(0.0, round(disabled_overhead, 4)),
                "unit": "fraction",
                "higher_is_better": False,
                "budget": 0.01,
                "context": {"bare_seconds": round(bare, 4)},
            },
            {
                "name": "paxson_stream_enabled_overhead",
                "value": max(0.0, round(enabled_overhead, 4)),
                "unit": "fraction",
                "higher_is_better": False,
                "budget": 0.03,
                "context": {"bare_seconds": round(bare, 4)},
            },
        ])


class TestFlightRecorderCost:
    def test_flight_append_cost(self):
        """One record() into the ring (no stream) must stay far below
        any dist-protocol action it annotates."""
        from repro.obs.flight import FlightRecorder

        rec = FlightRecorder(capacity=512)
        n = 100_000
        start = time.perf_counter()
        for i in range(n):
            rec.record("bench", task_id="t0", node="n0", attempt=0, seed=i)
        per_call_ns = (time.perf_counter() - start) / n * 1e9
        assert len(rec.events()) == 512
        assert per_call_ns < 50_000
        _ENTRIES.append({
            "name": "flight_append_ns_per_event",
            "value": round(per_call_ns, 1),
            "unit": "ns/event",
            "higher_is_better": False,
            "budget": 50_000,
        })


class TestScrapeOverhead:
    def test_coordinator_scrape_overhead_pct(self):
        """ISSUE 9 acceptance: piggybacked heartbeat metric scraping
        (worker dumps + ScrapeMerger at the coordinator) costs < 2% of
        the coordinator's wall on the BENCH_dist sleep-task grid."""
        from repro.dist import SimCluster, TaskSpec, run_distributed

        # The BENCH_dist grid shape (24 cells at 50ms): long enough
        # that per-campaign fixed costs amortize and the percentage
        # reflects the per-heartbeat/per-result scrape machinery.
        cells, cell_s, nodes = 24, 0.05, 4
        tasks = [
            TaskSpec(f"c{i}", "sleep", {"duration_s": cell_s, "value": i})
            for i in range(cells)
        ]

        def _wall(scraping):
            if scraping:
                ctx = obs.enabled()
            else:
                import contextlib

                obs.disable()
                ctx = contextlib.nullcontext()
            with ctx:
                with SimCluster(nodes) as cluster:
                    start = time.perf_counter()
                    report = run_distributed(
                        tasks, cluster.endpoints(), lease_s=1.0,
                    )
                    elapsed = time.perf_counter() - start
            assert report.ok
            return elapsed

        _wall(False)  # warm-up
        off = on = float("inf")
        for _ in range(5):
            off = min(off, _wall(False))
            on = min(on, _wall(True))
        trace.reset()
        metrics.registry().reset()
        overhead = on / off - 1.0
        assert overhead < 0.02, (
            f"heartbeat scraping cost {overhead:.2%} ({off:.3f}s -> {on:.3f}s)"
        )
        _ENTRIES.append({
            "name": "dist_scrape_overhead_pct",
            "value": max(0.0, round(overhead * 100.0, 2)),
            "unit": "percent",
            "higher_is_better": False,
            "budget": 2.0,
            "context": {"cells": cells, "cell_s": cell_s, "nodes": nodes,
                        "off_seconds": round(off, 4),
                        "on_seconds": round(on, 4)},
        })
