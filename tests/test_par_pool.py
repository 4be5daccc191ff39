"""Tests for the sweep's process fan-out, the seed derivation and metric merge.

``sweep_topologies(workers=N)`` runs its specs as ``"topology"`` tasks
on :func:`repro.dist.campaign.local_endpoints` worker processes.  Its
contract is that results are a pure function of the specs --
independent of worker count, scheduling and worker death -- that a
genuine spec error raises exactly as it does serially, that metrics
incremented inside workers reach the parent (as ``node=``-labeled
series), and that no worker process outlives the sweep.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import obs
from repro.dist import protocol
from repro.net import run_topology, sweep_topologies
from repro.obs import metrics
from repro.par.pool import derive_task_seed, resolve_workers
from repro.resilience.faults import FaultPlan

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def make_specs(n=5, slots=300):
    """``n`` two-hop specs with their own arrivals and capacities."""
    specs = []
    for i in range(n):
        arrivals = np.random.default_rng(200 + i).gamma(2.0, 600.0, size=slots)
        specs.append({
            "slots": slots,
            "nodes": [{"name": name, "buffer_bytes": 3_000.0} for name in "abc"],
            "links": [
                {"src": "a", "dst": "b", "capacity_per_slot": 1_200.0 + 40.0 * i},
                {"src": "b", "dst": "c", "capacity_per_slot": 1_150.0,
                 "delay_slots": 1},
            ],
            "flows": [{"name": "f", "path": ["a", "b", "c"],
                       "source": {"kind": "array", "values": arrivals.tolist()}}],
            "record_series": True,
        })
    return specs


def dump(results):
    """Everything a run reports, serialized byte for byte."""
    return json.dumps([
        {
            "series": {port: {k: v.tolist() for k, v in series.items()}
                       for port, series in r["series"].items()},
            "ports": r["ports"],
            "flows": r["flows"],
        }
        for r in results
    ], sort_keys=True)


def dying_kind(die):
    """A ``"topology"`` executor that exits a worker when ``die(params)``.

    Registered before the fork, so the local nodes inherit it; the
    coordinator's local fallback runs it in this process, where it
    never dies.
    """
    def run(params, seed):
        if die(params) and multiprocessing.parent_process() is not None:
            os._exit(13)
        return run_topology(params)

    return run


def capacity(spec):
    return spec["links"][0]["capacity_per_slot"]


def series_total(name):
    """A metric summed over every label set (``node=`` scrapes included)."""
    return sum(doc["value"] for key, doc in metrics.registry().to_dict().items()
               if key == name or key.startswith(name + "{"))


@pytest.fixture(autouse=True)
def no_stray_workers():
    """No local node outlives the sweep, whether it returned or raised."""
    yield
    assert multiprocessing.active_children() == []


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
    """The sweep's pool of local worker processes."""

    def test_empty(self):
        assert sweep_topologies([], workers=4) == []

    def test_serial_matches_parallel(self):
        serial = dump(sweep_topologies(make_specs(), workers=1))
        assert dump(sweep_topologies(make_specs(), workers=2)) == serial
        assert dump(sweep_topologies(make_specs(), workers=3)) == serial

    def test_worker_death_falls_back_to_serial(self, monkeypatch):
        # Every node dies on its first task: the coordinator finishes
        # the whole sweep in this process.
        monkeypatch.setitem(protocol._KINDS, "topology", dying_kind(lambda p: True))
        specs = make_specs()
        with obs.enabled():
            before = series_total("repro_dist_local_fallback_total")
            out = sweep_topologies(specs, workers=2)
            assert series_total("repro_dist_local_fallback_total") == before + 1
        assert dump(out) == dump(sweep_topologies(specs, workers=1))

    def test_task_exception_propagates(self):
        specs = make_specs(4)
        specs[2]["nodes"][0]["buffer_byts"] = 1.0
        raised = []
        for workers in (1, 2):
            with pytest.raises(ValueError, match=r"unknown keys \['buffer_byts'\]") as info:
                sweep_topologies(specs, workers=workers)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_fault_plan_forces_serial(self, monkeypatch):
        # Under an active plan every spec runs in this process: the
        # sweep's own run_topology sees all of them, in order.
        import repro.net.sweep as sweep_module

        seen = []

        def run(spec):
            seen.append(capacity(spec))
            return run_topology(spec)

        monkeypatch.setattr(sweep_module, "run_topology", run)
        specs = make_specs(4)
        with FaultPlan().active():
            out = sweep_topologies(specs, workers=3)
        assert seen == [capacity(spec) for spec in specs]
        assert dump(out) == dump(sweep_topologies(specs, workers=1))


class TestMetricMerge:
    """Worker-side metric increments reach the parent exactly."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exact_task_counts_survive_pool(self, workers):
        # Serially the slots land in the unlabeled series; from workers
        # they arrive as node=-labeled scrapes.  Summed, both are equal.
        specs = make_specs(5)
        with obs.enabled():
            before = series_total("repro_net_slots_total")
            sweep_topologies(specs, workers=workers)
            slots = series_total("repro_net_slots_total") - before
        assert slots == 5 * 300 * 2  # specs x slots x ports


def _net_cli(paths, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", "net", *paths, *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _spec_files(tmp_path, named_specs):
    paths = []
    for name, spec in named_specs:
        spec.pop("record_series", None)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))
    return paths


class TestSweepCLI:
    """A parallel ``repro net`` sweep writes what the serial one writes."""

    def test_bad_spec_in_parallel_sweep_is_one_error_line(self, tmp_path):
        good, bad = make_specs(2)
        bad["nodes"][0]["buffer_byts"] = 1.0
        paths = _spec_files(tmp_path, [("bad", bad), ("good", good)])
        result = _net_cli(paths, "--workers", "2")
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines() == ["error: nodes[0]: unknown keys ['buffer_byts']"]
        assert _net_cli(paths).stderr == result.stderr

    def test_good_specs_in_parallel_sweep_log_nothing(self, tmp_path):
        paths = _spec_files(tmp_path, zip(("one", "two"), make_specs(2)))
        parallel, serial = _net_cli(paths, "--workers", "2"), _net_cli(paths)
        assert parallel.returncode == serial.returncode == 0, parallel.stderr
        assert parallel.stderr == serial.stderr == ""
        assert parallel.stdout == serial.stdout


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
