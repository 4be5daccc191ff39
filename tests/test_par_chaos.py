"""Chaos tests for the parallel engine (tier 2, nightly).

Three failure families from the issue's acceptance list: worker death
mid-sweep (the local nodes' coordinator must reassign or fall back and
still produce bit-identical results), poisoned cache entries (digest
mismatch must evict and recompute, never serve), and a SIGKILLed
parallel campaign resuming to digest-identical results.  Scenario
shaping (which tasks die, which byte is flipped, where the kill lands)
rotates with the nightly ``--qa-seed``.
"""

import faulthandler
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.daviesharte import DaviesHarteGenerator
from repro.dist import protocol
from repro.experiments.runner import run_all
from repro.net import run_topology, sweep_topologies
from repro.par.cache import ContentCache, using
from repro.par.pool import derive_task_seed
from repro.qa.golden import diff_digests, summarize

pytestmark = pytest.mark.tier2


@pytest.fixture
def chaos_rng(request):
    """Scenario-shaping rng rotated by the nightly ``--qa-seed``."""
    return np.random.default_rng(
        derive_task_seed(request.config.getoption("--qa-seed"), 0,
                         label=request.node.nodeid)
    )


def _fgn_specs(seed, count, slots):
    """One-hop specs whose flows synthesize their own fGn arrivals."""
    return [
        {
            "slots": slots,
            "nodes": [{"name": "a", "buffer_bytes": 50_000.0}, {"name": "b"}],
            "links": [{"src": "a", "dst": "b",
                       "capacity_per_slot": 30_000.0 + 500.0 * index}],
            "flows": [{"name": "f", "path": ["a", "b"], "source": {
                "kind": "fgn", "hurst": 0.8, "marginal": "paper",
                "seed": derive_task_seed(seed, index, label="chaos"),
                "block_size": 2_048, "overlap": 128,
            }}],
        }
        for index in range(count)
    ]


def _summaries(results):
    return json.dumps([{"ports": r["ports"], "flows": r["flows"]} for r in results],
                      sort_keys=True)


class TestWorkerDeath:
    @pytest.fixture(autouse=True)
    def watchdog(self):
        """Bound each test: dump every thread and exit rather than hang.

        A death the coordinator cannot recover from would otherwise
        stall the run forever (pytest-timeout is not a dependency).  The
        bound leaves room for one lease expiry plus the serial rerun.
        Every local node must be gone when the sweep returns.
        """
        faulthandler.dump_traceback_later(120.0, exit=True, file=sys.__stderr__)
        yield
        faulthandler.cancel_dump_traceback_later()
        assert multiprocessing.active_children() == []

    def test_random_worker_deaths_keep_results_identical(self, chaos_rng, monkeypatch):
        specs = _fgn_specs(int(chaos_rng.integers(0, 2**31)), 12, 2_000)
        victims = {
            specs[i]["links"][0]["capacity_per_slot"]
            for i in chaos_rng.choice(len(specs), size=4, replace=False).tolist()
        }
        serial = _summaries(sweep_topologies(specs, workers=1))

        def die_on_victims(params, seed):
            # Inherited by the forked nodes; the parent's local fallback
            # runs the same kind and never dies.
            if (params["links"][0]["capacity_per_slot"] in victims
                    and multiprocessing.parent_process() is not None):
                os._exit(17)
            return run_topology(params)

        monkeypatch.setitem(protocol._KINDS, "topology", die_on_victims)
        assert _summaries(sweep_topologies(specs, workers=3)) == serial

    def test_death_during_sharded_synthesis(self, chaos_rng):
        # Each spec synthesizes its own fGn arrivals and never kills
        # itself; one local node is SIGKILLed from outside mid-sweep.
        specs = _fgn_specs(int(chaos_rng.integers(0, 2**31)), 8, 20_000)
        reference = _summaries(sweep_topologies(specs, workers=1))

        killed = []
        stop = threading.Event()

        def killer():
            deadline = time.monotonic() + 20.0
            while not killed and not stop.is_set() and time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    try:
                        os.kill(children[0].pid, signal.SIGKILL)
                        killed.append(children[0].pid)
                    except (ProcessLookupError, PermissionError):
                        pass
                time.sleep(0.01)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        try:
            chaotic = _summaries(sweep_topologies(specs, workers=3))
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert killed
        assert chaotic == reference


class TestPoisonedCache:
    def test_random_corruption_is_evicted_and_recomputed(self, tmp_path, chaos_rng):
        hurst = float(chaos_rng.uniform(0.55, 0.95))
        rng_seed = int(chaos_rng.integers(0, 2**31))
        uncached = DaviesHarteGenerator(hurst).generate(
            4096, rng=np.random.default_rng(rng_seed)
        )
        with using(tmp_path):
            DaviesHarteGenerator(hurst).generate(
                4096, rng=np.random.default_rng(rng_seed)
            )
            payloads = sorted(tmp_path.rglob("*.npz"))
            assert payloads, "warm-up generation wrote no cache entry"
            victim = payloads[int(chaos_rng.integers(0, len(payloads)))]
            blob = bytearray(victim.read_bytes())
            blob[int(chaos_rng.integers(0, len(blob)))] ^= 0xFF
            victim.write_bytes(bytes(blob))
            regenerated = DaviesHarteGenerator(hurst).generate(
                4096, rng=np.random.default_rng(rng_seed)
            )
        # The poisoned entry was never served: output is bit-identical
        # to the uncached computation.
        np.testing.assert_array_equal(regenerated, uncached)

    def test_every_entry_poisoned_still_recovers(self, tmp_path, chaos_rng):
        cache = ContentCache(tmp_path)
        params = {"n": 64, "tag": "chaos"}
        cache.put("alg", params, np.arange(64.0))
        for payload in tmp_path.rglob("*.npz"):
            blob = bytearray(payload.read_bytes())
            blob[int(chaos_rng.integers(0, len(blob)))] ^= 0xFF
            payload.write_bytes(bytes(blob))
        assert cache.get("alg", params) is None
        cache.put("alg", params, np.arange(64.0))
        np.testing.assert_array_equal(cache.get("alg", params), np.arange(64.0))


def campaign_digest(results):
    return json.loads(json.dumps(summarize(results)))


@pytest.fixture(scope="module")
def uninterrupted():
    """One uninterrupted serial quick campaign shared by the scenarios."""
    return run_all(quick=True)


class TestParallelCampaign:
    def test_parallel_quick_campaign_matches_serial(self, uninterrupted):
        parallel = run_all(quick=True, workers=2)
        assert diff_digests(
            campaign_digest(uninterrupted), campaign_digest(parallel)
        ) == []

    def test_sigkill_parallel_campaign_resumes_identically(
        self, tmp_path, uninterrupted, chaos_rng
    ):
        ckpt = tmp_path / "ckpt"
        kill_after = int(chaos_rng.integers(2, 8))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.experiments.runner import run_all\n"
                f"run_all(quick=True, checkpoint_dir={str(ckpt)!r}, workers=2)\n",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 180.0
            while time.monotonic() < deadline:
                done = [p for p in ckpt.glob("*.json") if p.stem != "campaign"]
                if len(done) >= kill_after or proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()
        completed = [p.stem for p in ckpt.glob("*.json") if p.stem != "campaign"]
        assert completed, "campaign was killed before any checkpoint was written"
        assert len(completed) < 23, "campaign finished before it could be killed"

        report = run_all(
            quick=True, checkpoint_dir=str(ckpt), resume=True,
            report=True, workers=2,
        )
        assert report.ok
        assert len(report.results) == 25
        assert set(report.resumed) == set(completed)
        assert diff_digests(
            campaign_digest(uninterrupted), campaign_digest(report.results)
        ) == []
