"""Fleet-allocator benchmarks: throughput and decision overhead.

Recorded -- with budgets, so a slowdown fails ``repro obs bench-diff``
as well as this suite -- in ``BENCH_alloc.json`` at the repo root:

- fleet simulation throughput in user-epochs/s under the harvest
  allocator (the experiment-shaped workload: mixed video/CBR/data
  users on per-user slot-fluid queues, re-partitioned every epoch),
- allocator decision overhead: the fraction of wall time spent inside
  ``decide()`` rather than generating traffic and serving queues --
  the control plane must stay a rounding error next to the data
  plane.

Wall-clock measurements keep the best of several runs and carry the
suite's ``statistical_retry`` marker as a noise backstop.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.alloc import demo_fleet, simulate_fleet
from repro.obs.bench import write_bench

REPO_ROOT = Path(__file__).resolve().parents[1]

_ENTRIES = []

pytestmark = [
    pytest.mark.tier2,  # timing-sensitive: nightly, not PR gate
    pytest.mark.statistical_retry,
]


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge recorded costs into BENCH_alloc.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_alloc.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


class TestFleetThroughput:
    def test_user_epochs_per_second(self):
        """The harvest fleet must process >= 300 user-epochs/s.

        One user-epoch = generating one user's epoch of traffic
        (seeded fGn / CBR / bursts) and serving it through its
        slot-fluid queue.  The budget guards against an accidentally
        per-user FFT (the video group batching is the whole point) or
        a per-epoch allocation spree, not against kernel speed.
        """
        spec = demo_fleet(32, epoch_slots=80, n_epochs=12,
                          utilization=0.8, buffer_slots=12.0, seed=2026)
        best = float("inf")
        for _ in range(3):
            result = simulate_fleet(spec, "harvest")
            best = min(best, result.wall_seconds)
        user_epochs = spec.n_epochs * len(spec.users)
        rate = user_epochs / best
        assert rate >= 300.0, (
            f"fleet processed {rate:,.0f} user-epochs/s < 300 "
            f"({user_epochs} user-epochs in {best:.3f}s)"
        )
        _ENTRIES.append({
            "name": "alloc_harvest_user_epochs_per_second",
            "value": round(rate, 0),
            "unit": "user-epochs/s",
            "higher_is_better": True,
            "budget": 300.0,
            "context": {"users": len(spec.users), "epochs": spec.n_epochs,
                        "epoch_slots": spec.epoch_slots,
                        "best_seconds": round(best, 4)},
        })

    def test_decision_overhead_fraction(self):
        """Causal allocator decisions must cost < 5% of wall time.

        Measured on the trade allocator (the most bookkeeping-heavy
        causal policy) at experiment-scale epochs, where the data
        plane does real work; the oracle is excluded by design --
        rehearsing candidate partitions against the real kernel IS its
        job, so its decide time is data-plane work.
        """
        spec = demo_fleet(32, epoch_slots=800, n_epochs=12,
                          utilization=0.8, buffer_slots=12.0, seed=2026)
        simulate_fleet(spec, "trade")  # warm-up (FFT plans, caches)
        best_fraction = float("inf")
        for _ in range(5):
            result = simulate_fleet(spec, "trade")
            best_fraction = min(
                best_fraction, result.decide_seconds / result.wall_seconds)
        assert best_fraction < 0.05, (
            f"trade allocator spent {best_fraction:.1%} of wall time "
            "deciding (budget 5%)"
        )
        _ENTRIES.append({
            "name": "alloc_trade_decide_overhead_fraction",
            "value": round(best_fraction, 4),
            "unit": "fraction",
            "higher_is_better": False,
            "budget": 0.05,
            "context": {"users": len(spec.users), "epochs": spec.n_epochs,
                        "epoch_slots": spec.epoch_slots},
        })
