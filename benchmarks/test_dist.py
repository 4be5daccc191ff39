"""Distributed-coordinator benchmarks (ISSUE 8 acceptance).

Recorded — with budgets, so a regression fails ``repro obs bench-diff``
as well as this suite — in ``BENCH_dist.json`` at the repo root:

- ``dist_sim_speedup_8w``: near-linear scaling of the fig14-shaped
  sleep grid from 1 to 8 simulated workers.  Sleep tasks overlap
  regardless of host core count, so this isolates the scheduler and
  the budget holds on the 1-CPU CI container;
- ``dist_coordinator_overhead_pct``: coordinator wall time on one
  node vs the ideal serial sleep sum — dispatch, lease bookkeeping,
  heartbeat draining and checkpoint-free completion must all cost
  < 5% of the grid;
- ``dist_node_loss_recovery_s``: informational — wall-clock cost of
  losing a node mid-grid (lease expiry + reassignment), for capacity
  planning of lease_s choices.

Wall-clock comparisons keep each variant's best of several runs and
carry the suite's ``statistical_retry`` marker as a noise backstop.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.dist import FaultEvent, FaultScript, SimCluster, TaskSpec, run_distributed
from repro.obs.bench import write_bench

REPO_ROOT = Path(__file__).resolve().parents[1]

_ENTRIES = []

pytestmark = [
    pytest.mark.tier2,  # timing-sensitive: nightly, not PR gate
    pytest.mark.statistical_retry,
]

GRID_CELLS = 24  # ~fig14: 10 Q-C points x layers, equalized cost
CELL_S = 0.05


@pytest.fixture(scope="session", autouse=True)
def _record_bench():
    """Merge recorded costs into BENCH_dist.json after the run."""
    yield
    if not _ENTRIES:
        return
    write_bench(
        REPO_ROOT / "BENCH_dist.json", _ENTRIES,
        generated_at=os.environ.get("BENCH_TIMESTAMP"),
    )


def _grid_tasks():
    return [
        TaskSpec(f"cell{i:03d}", "sleep", {"duration_s": CELL_S, "value": i})
        for i in range(GRID_CELLS)
    ]


def _grid_wall(n_nodes, script=None, lease_s=5.0, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        with SimCluster(n_nodes, script=script) as cluster:
            start = time.perf_counter()
            report = run_distributed(
                _grid_tasks(), cluster.endpoints(), lease_s=lease_s
            )
            best = min(best, time.perf_counter() - start)
        assert report.ok
    return best


class TestScaling:
    def test_sim_speedup_8_workers_near_linear(self):
        """ISSUE acceptance: near-linear scaling to 8 simulated workers."""
        serial_s = _grid_wall(1)
        parallel_s = _grid_wall(8)
        speedup = serial_s / parallel_s
        assert speedup >= 6.0, (
            f"8-worker scaling {speedup:.2f}x < 6x "
            f"({serial_s:.2f}s -> {parallel_s:.2f}s)"
        )
        _ENTRIES.append({
            "name": "dist_sim_speedup_8w",
            "value": round(speedup, 2),
            "unit": "x",
            "higher_is_better": True,
            "budget": 6.0,
            "context": {"grid_cells": GRID_CELLS, "cell_s": CELL_S,
                        "serial_s": round(serial_s, 3),
                        "parallel_s": round(parallel_s, 3),
                        "ideal_x": 8.0},
        })

    def test_coordinator_overhead_under_5_percent(self):
        """ISSUE acceptance: coordinator overhead < 5% on the fig14 grid.

        One node executing the grid serially has an ideal wall time of
        ``GRID_CELLS * CELL_S``; everything above that is coordinator
        cost (dispatch, heartbeat draining, lease bookkeeping).
        """
        ideal_s = GRID_CELLS * CELL_S
        wall_s = _grid_wall(1, repeats=3)
        overhead_pct = (wall_s - ideal_s) / ideal_s * 100.0
        assert overhead_pct < 5.0, (
            f"coordinator overhead {overhead_pct:.2f}% >= 5% "
            f"(ideal {ideal_s:.2f}s, measured {wall_s:.2f}s)"
        )
        _ENTRIES.append({
            "name": "dist_coordinator_overhead_pct",
            "value": round(overhead_pct, 2),
            "unit": "%",
            "higher_is_better": False,
            "budget": 5.0,
            "context": {"grid_cells": GRID_CELLS, "cell_s": CELL_S,
                        "ideal_s": round(ideal_s, 3),
                        "wall_s": round(wall_s, 3)},
        })


class TestRecoveryCost:
    def test_node_loss_recovery_cost(self):
        """Wall-clock cost of one mid-grid node kill (informational).

        Bounded by the lease: detection costs at most ``lease_s`` plus
        one reassigned cell.  Recorded without a budget — it sizes
        lease_s choices rather than gating."""
        lease_s = 0.3
        clean_s = _grid_wall(4, lease_s=lease_s)
        script = FaultScript([FaultEvent("n0", "kill", at_task=2,
                                         phase="finish")])
        with SimCluster(4, script=script) as cluster:
            start = time.perf_counter()
            report = run_distributed(
                _grid_tasks(), cluster.endpoints(), lease_s=lease_s
            )
            faulted_s = time.perf_counter() - start
        assert report.ok and script.fired
        recovery_s = max(faulted_s - clean_s, 0.0)
        _ENTRIES.append({
            "name": "dist_node_loss_recovery_s",
            "value": round(recovery_s, 3),
            "unit": "s",
            "higher_is_better": False,
            "context": {"lease_s": lease_s, "nodes": 4,
                        "clean_s": round(clean_s, 3),
                        "faulted_s": round(faulted_s, 3)},
        })
