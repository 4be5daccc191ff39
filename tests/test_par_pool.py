"""Tests for the process-pool map, its seed derivation and metric merge.

The pool's contract is that results are a pure function of
``(fn, items)`` — independent of worker count, scheduling,
worker death and recycling — and that metrics incremented inside
workers survive the pool boundary exactly (the obs registry is
process-local, so without the merge they would silently vanish).
"""

import multiprocessing
import os

import pytest

from repro import obs
from repro.obs import metrics
from repro.par.pool import derive_task_seed, pool_map, resolve_workers
from repro.resilience.faults import FaultPlan


# ----------------------------------------------------------------------
# Module-level task functions (pool tasks must be picklable).
# ----------------------------------------------------------------------
def _double(item):
    return item * 2


def _die_in_child(item):
    # Only the forked worker dies; the serial fallback (parent process)
    # completes the task normally.
    if item % 2 == 1 and multiprocessing.parent_process() is not None:
        os._exit(13)
    return item * 10


def _counted(item):
    metrics.registry().counter(
        "repro_par_pool_test_total", unit="tasks"
    ).inc()
    return item


def _raise_on_three(item):
    if item == 3:
        raise RuntimeError("task defect")
    return item


class TestSeeds:
    def test_derivation_matches_sha256(self):
        import hashlib

        digest = hashlib.sha256(b"42:shard:7").digest()
        assert derive_task_seed(42, 7, label="shard") == int.from_bytes(
            digest[:8], "big"
        )

    def test_distinct_across_index_label_base(self):
        seeds = {
            derive_task_seed(0, 0),
            derive_task_seed(0, 1),
            derive_task_seed(1, 0),
            derive_task_seed(0, 0, label="other"),
        }
        assert len(seeds) == 4

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers("3") == 3
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)


class TestPoolMap:
    def test_empty(self):
        assert pool_map(_double, [], workers=4) == []

    def test_serial_matches_parallel(self):
        items = list(range(9))
        serial = pool_map(_double, items, workers=1)
        assert serial == [i * 2 for i in items]
        assert pool_map(_double, items, workers=3) == serial

    def test_worker_death_falls_back_to_serial(self):
        items = list(range(6))
        out = pool_map(_die_in_child, items, workers=2)
        assert out == [i * 10 for i in items]

    def test_wedged_pool_is_abandoned_and_rerun(self, monkeypatch):
        # The state a worker SIGKILLed mid-protocol can leave: the
        # executor's manager thread is gone, so no future ever resolves,
        # and a worker is dead.  The bounded wait must give up on the
        # pool and finish every task serially instead of hanging.
        from concurrent.futures import process as futures_process

        from repro.par import pool

        def wedge(manager):
            next(iter(manager.processes.values())).kill()

        monkeypatch.setattr(futures_process._ExecutorManagerThread, "run", wedge)
        monkeypatch.setattr(pool, "STALL_S", 0.2)
        items = list(range(6))
        assert pool_map(_double, items, workers=2) == [i * 2 for i in items]

    def test_task_exception_propagates(self):
        with pytest.raises(RuntimeError, match="task defect"):
            pool_map(_raise_on_three, range(5), workers=2)
        with pytest.raises(RuntimeError, match="task defect"):
            pool_map(_raise_on_three, range(5), workers=1)

    def test_fault_plan_forces_serial(self):
        # The serial path announces each task at the par.pool:task fault
        # site; a fault landing there proves the map ran in-process even
        # though workers > 1 was requested.
        plan = FaultPlan().fail_at("par.pool:task", call=2, exc=ValueError)
        with plan.active():
            with pytest.raises(ValueError):
                pool_map(_double, range(4), workers=3)


class TestMetricMerge:
    """Worker-side metric increments survive the pool exactly."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exact_task_counts_survive_pool(self, workers):
        with obs.enabled():
            counter = metrics.registry().counter(
                "repro_par_pool_test_total", unit="tasks"
            )
            before = counter.value
            assert pool_map(_counted, range(7), workers=workers) == list(range(7))
            assert counter.value - before == 7


class TestMergeDump:
    """Unit contract of :func:`repro.obs.metrics.merge_dump` itself."""

    def test_counter_adds(self):
        scratch = metrics.MetricsRegistry()
        with obs.enabled():
            scratch.counter("m_total").inc(3)
            target = metrics.MetricsRegistry()
            target.counter("m_total").inc(2)
        metrics.merge_dump(scratch.to_dict(), into=target)
        assert target.counter("m_total").value == 5

    def test_gauge_merges_min_max(self):
        scratch = metrics.MetricsRegistry()
        target = metrics.MetricsRegistry()
        with obs.enabled():
            child = scratch.gauge("depth")
            child.set(9)
            child.set(4)
            target.gauge("depth").set(1)
        metrics.merge_dump(scratch.to_dict(), into=target)
        doc = target.to_dict()["depth"]
        assert doc["value"] == 4  # child's last write wins
        assert doc["min"] == 1 and doc["max"] == 9

    def test_histogram_adds_per_bucket(self):
        scratch = metrics.MetricsRegistry()
        target = metrics.MetricsRegistry()
        bounds = (1.0, 10.0)
        with obs.enabled():
            for value in (0.5, 5.0, 50.0):
                scratch.histogram("lat", buckets=bounds).observe(value)
            target.histogram("lat", buckets=bounds).observe(0.25)
        metrics.merge_dump(scratch.to_dict(), into=target)
        doc = target.to_dict()["lat"]
        assert doc["count"] == 4
        assert doc["sum"] == pytest.approx(55.75)
        assert doc["buckets"]["1.0"] == 2
        assert doc["buckets"]["10.0"] == 3

    def test_histogram_bucket_mismatch_is_hard_error(self):
        scratch = metrics.MetricsRegistry()
        target = metrics.MetricsRegistry()
        with obs.enabled():
            scratch.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
            target.histogram("lat", buckets=(1.0, 4.0)).observe(0.5)
        with pytest.raises(ValueError, match="mis-bin"):
            metrics.merge_dump(scratch.to_dict(), into=target)
