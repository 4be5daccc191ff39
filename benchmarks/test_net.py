"""Network-simulator benchmarks: port-slot throughput through a tandem.

Recorded -- with a budget, so a slowdown fails ``repro obs bench-diff``
as well as this suite -- in ``BENCH_net.json`` at the repo root:

- port-slot throughput through a 3-hop FIFO tandem (the
  experiment-shaped workload: one flow, every port folded over the
  horizon, store-and-forward deliveries),
- single-hop net-vs-batch overhead: how much a whole ``run_topology``
  call (spec parsing, source draining, per-hop accounting) costs
  relative to ``simulate_queue`` on the same arrivals, recorded
  without a budget as context.

Wall-clock measurements keep the best of several runs and carry the
suite's ``statistical_retry`` marker as a noise backstop.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.net import run_topology
from repro.obs.bench import write_bench
from repro.simulation.queue import simulate_queue

REPO_ROOT = Path(__file__).resolve().parents[1]

_ENTRIES = []

pytestmark = [
    pytest.mark.tier2,  # timing-sensitive: nightly, not PR gate
    pytest.mark.statistical_retry,
]


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge recorded costs into BENCH_net.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_net.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


def _tandem_spec(series, hops, capacity, buffer_bytes):
    names = "abcdefgh"[: hops + 1]
    return {
        "slots": len(series),
        "nodes": [{"name": n, "buffer_bytes": buffer_bytes} for n in names],
        "links": [
            {"src": names[i], "dst": names[i + 1], "capacity_per_slot": capacity}
            for i in range(hops)
        ],
        "flows": [{
            "name": "f", "path": list(names),
            "source": {"kind": "array", "values": series},
        }],
    }


class TestEngineThroughput:
    def test_tandem_port_slots_per_second(self):
        """A 3-hop tandem must serve >= 3M port-slots/s.

        The workload is the shape every net experiment uses: one flow
        emitting every slot through three store-and-forward FIFO ports.
        A port-slot is one port served for one slot; the engine folds
        each port over the whole horizon, so the budget guards against
        a per-slot Python loop creeping back into the FIFO path.
        """
        slots = 20_000
        rng = np.random.default_rng(12345)
        series = rng.gamma(2.0, 14_000.0, size=slots).tolist()
        spec = _tandem_spec(series, hops=3, capacity=31_000.0,
                            buffer_bytes=120_000.0)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            result = run_topology(dict(spec))
            best = min(best, time.perf_counter() - start)
        port_slots = sum(p["slots"] for p in result["ports"].values())
        rate = port_slots / best
        assert rate >= 3_000_000.0, (
            f"3-hop tandem served {rate:,.0f} port-slots/s < 3,000,000 "
            f"({port_slots} port-slots in {best:.4f}s)"
        )
        _ENTRIES.append({
            "name": "net_tandem_3hop_port_slots_per_second",
            "value": round(rate, 0),
            "unit": "port-slots/s",
            "higher_is_better": True,
            "budget": 3_000_000.0,
            "context": {"slots": slots, "hops": 3, "port_slots": port_slots,
                        "best_seconds": round(best, 4)},
        })

    def test_single_hop_overhead_vs_batch(self):
        """Context entry: network run vs batch cost on one queue."""
        slots = 20_000
        rng = np.random.default_rng(12345)
        arrivals = rng.gamma(2.0, 14_000.0, size=slots)
        capacity, buffer_bytes = 31_000.0, 120_000.0
        batch = net = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            ref = simulate_queue(arrivals, capacity, buffer_bytes)
            batch = min(batch, time.perf_counter() - start)
        series = arrivals.tolist()
        for _ in range(5):
            start = time.perf_counter()
            result = run_topology(
                _tandem_spec(series, hops=1, capacity=capacity,
                             buffer_bytes=buffer_bytes)
            )
            net = min(net, time.perf_counter() - start)
        # The two paths must agree exactly before their costs compare.
        assert result["ports"]["a->b"]["lost_bytes"] == ref.lost_bytes
        _ENTRIES.append({
            "name": "net_single_hop_overhead_vs_batch",
            "value": round(net / batch, 1),
            "unit": "x",
            "higher_is_better": False,
            "context": {"slots": slots, "batch_seconds": round(batch, 6),
                        "net_seconds": round(net, 6)},
        })
