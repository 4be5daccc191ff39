"""Batched-synthesis speedup benchmarks.

These benchmarks record the speedup stacked fGn synthesis delivers
over the per-trace path it replaces, folding the ratios into
``BENCH_stream.json`` (merged by name with the throughput entries of
``test_stream.py``):

- ``batched_synthesis_speedup_b64``: 64 independent fGn traces through
  one stacked 2-D FFT (one ``batch_generate`` call of 64 rows on a
  fresh ``PaxsonGenerator(0.8)``) versus 64 single-row
  ``batch_generate`` calls with the same row seeds (a fresh generator
  and spectral profile, one FFT per trace).  The win is
  dispatch-bound, so it is measured where batching is aimed: many
  short traces.  A companion entry at a streaming-scale block length
  records the honest large-``n`` ratio, where the per-row Gaussian
  draws and the FFT dominate both sides.

Both entries measure best-of-N in one process so CPU frequency scaling
hits both sides alike; the budget is a floor on the *ratio*, which is
far more stable than either absolute rate.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import batch_generate
from repro.core.paxson import PaxsonGenerator
from repro.obs.bench import write_bench
from repro.par.pool import derive_task_seed

REPO_ROOT = Path(__file__).resolve().parents[1]

_ENTRIES = []


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge the measured ratios into BENCH_stream.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_stream.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


def _best_of(func, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


class TestBatchedSynthesisSpeedup:
    B = 64

    def _speedup(self, n, rounds=5):
        seeds = [derive_task_seed(0, i, label="batch") for i in range(self.B)]

        def rngs(row_seeds):
            return [np.random.Generator(np.random.PCG64(s)) for s in row_seeds]

        def loop():
            return [batch_generate(PaxsonGenerator(0.8), n, rngs([s]))[0] for s in seeds]

        def batched():
            return batch_generate(PaxsonGenerator(0.8), n, rngs(seeds))

        np.testing.assert_array_equal(batched(), np.stack(loop()))  # never a trade
        return _best_of(loop, rounds), _best_of(batched, rounds)

    def test_dispatch_bound_blocks(self):
        """B=64 short traces: the regime stacking exists for."""
        n = 128
        loop_s, batch_s = self._speedup(n)
        speedup = loop_s / batch_s
        assert speedup > 3.0  # hard floor even on a noisy machine
        _ENTRIES.append({
            "name": "batched_synthesis_speedup_b64",
            "value": round(speedup, 2),
            "unit": "x",
            "higher_is_better": True,
            "budget": 5.0,
            "context": {
                "compared": "one batch_generate call of B rows vs B single-row "
                            "batch_generate calls, same row seeds",
                "batch": self.B, "n": n, "backend": "paxson",
                "loop_seconds": round(loop_s, 4),
                "batched_seconds": round(batch_s, 4),
            },
        })

    def test_streaming_scale_blocks(self):
        """B=64 FFT-bound traces: the honest large-n ratio (no budget --
        draws and FFT dominate both sides, so the gain is modest)."""
        n = 4_096
        loop_s, batch_s = self._speedup(n, rounds=3)
        speedup = loop_s / batch_s
        assert speedup > 1.2
        _ENTRIES.append({
            "name": "batched_synthesis_speedup_b64_4k",
            "value": round(speedup, 2),
            "unit": "x",
            "higher_is_better": True,
            "context": {
                "compared": "one batch_generate call of B rows vs B single-row "
                            "batch_generate calls, same row seeds",
                "batch": self.B, "n": n, "backend": "paxson",
                "loop_seconds": round(loop_s, 4),
                "batched_seconds": round(batch_s, 4),
            },
        })
