"""Resilience-layer benchmarks: what supervision and checkpointing cost.

The supervisor's contract is that resilience is close to free: running
the quick campaign with per-experiment checkpoints (pickle + digest +
atomic JSON per experiment) must stay within 5% of the plain run, and
the idle ``reach()`` instrumentation hook must be a no-op-scale global
read.  Timings use ``time.perf_counter`` directly (each campaign is one
end-to-end run); results fold into ``BENCH_resilience.json`` at the
repo root, mirroring ``BENCH_stream.json``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments.data import reference_trace
from repro.experiments.runner import experiment_specs
from repro.obs.bench import write_bench
from repro.resilience.faults import reach
from repro.resilience.runner import run_campaign

REPO_ROOT = Path(__file__).resolve().parents[1]

_ENTRIES = []


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge recorded timings into BENCH_resilience.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_resilience.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


@pytest.fixture(scope="module")
def quick_specs():
    trace = reference_trace(n_frames=40_000)
    return experiment_specs(trace, quick=True)


def _timed_campaign(specs, **kwargs):
    start = time.perf_counter()
    report = run_campaign(specs, **kwargs)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert len(report.results) == 21
    return elapsed


class TestCheckpointOverhead:
    def test_checkpointing_within_5_percent(self, quick_specs, tmp_path):
        """ISSUE acceptance: checkpointing overhead on the quick
        campaign < 5% of the plain supervised run."""
        # Interleave plain/checkpointed and keep each variant's best of
        # 2, damping one-off machine noise without doubling the cost.
        plain = min(
            _timed_campaign(quick_specs),
            _timed_campaign(quick_specs),
        )
        checkpointed = min(
            _timed_campaign(quick_specs, checkpoint_dir=tmp_path / "a", resume=False),
            _timed_campaign(quick_specs, checkpoint_dir=tmp_path / "b", resume=False),
        )
        overhead = checkpointed / plain - 1.0
        assert overhead < 0.05, (
            f"checkpointing cost {overhead:.1%} on the quick campaign "
            f"({plain:.2f}s -> {checkpointed:.2f}s)"
        )
        _ENTRIES.append({
            "name": "quick_campaign_checkpoint_overhead",
            "value": round(overhead, 4),
            "unit": "fraction",
            "higher_is_better": False,
            "budget": 0.05,
            "context": {
                "plain_seconds": round(plain, 3),
                "checkpointed_seconds": round(checkpointed, 3),
            },
        })

    def test_resume_is_fast(self, quick_specs, tmp_path):
        """Resuming a fully checkpointed campaign skips all the work:
        it must cost a small fraction of the original run."""
        ckpt = tmp_path / "full"
        full = _timed_campaign(quick_specs, checkpoint_dir=ckpt, resume=False)
        start = time.perf_counter()
        report = run_campaign(quick_specs, checkpoint_dir=ckpt, resume=True)
        resumed = time.perf_counter() - start
        assert report.ok and len(report.resumed) == 21
        assert resumed < 0.5 * full
        _ENTRIES.append({
            "name": "quick_campaign_resume_speedup",
            "value": round(full / resumed, 1),
            "unit": "x",
            "higher_is_better": True,
            "budget": 2,
            "context": {
                "full_seconds": round(full, 3),
                "resumed_seconds": round(resumed, 3),
            },
        })


class TestReachOverhead:
    def test_idle_hook_is_nanoseconds(self):
        """With no active plan, reach() must stay within a few hundred
        nanoseconds per call so instrumentation can live in hot paths."""
        n = 1_000_000
        start = time.perf_counter()
        for _ in range(n):
            reach("bench:site")
        per_call_ns = (time.perf_counter() - start) / n * 1e9
        assert per_call_ns < 2_000  # generous bound; records the real cost
        _ENTRIES.append({
            "name": "idle_reach_ns_per_call",
            "value": round(per_call_ns, 1),
            "unit": "ns/call",
            "higher_is_better": False,
            "budget": 2_000,
        })
