"""Chaos tests for the parallel engine (tier 2, nightly).

Three failure families from the issue's acceptance list: worker death
mid-map (the pool must fall back and still produce bit-identical
results), poisoned cache entries (digest mismatch must evict and
recompute, never serve), and a SIGKILLed parallel campaign resuming to
digest-identical results.  Scenario shaping (which tasks die, which
byte is flipped, where the kill lands) rotates with the nightly
``--qa-seed``.
"""

import faulthandler
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.daviesharte import DaviesHarteGenerator
from repro.experiments.runner import run_all
from repro.par.cache import ContentCache, using
from repro.par.pool import derive_task_seed, pool_map
from repro.par.shard import shard_fgn
from repro.qa.golden import diff_digests, summarize

pytestmark = pytest.mark.tier2


@pytest.fixture
def chaos_rng(request):
    """Scenario-shaping rng rotated by the nightly ``--qa-seed``."""
    return np.random.default_rng(
        derive_task_seed(request.config.getoption("--qa-seed"), 0,
                         label=request.node.nodeid)
    )


def _maybe_die(item):
    value, die = item
    if die and multiprocessing.parent_process() is not None:
        os._exit(17)
    return value**2


class TestWorkerDeath:
    @pytest.fixture(autouse=True)
    def watchdog(self):
        """Bound each test: dump every thread and exit rather than hang.

        A death the pool cannot recover from would otherwise stall the
        run forever (pytest-timeout is not a dependency).  The bound
        leaves room for one ``STALL_S`` wait plus the serial rerun.
        """
        faulthandler.dump_traceback_later(120.0, exit=True, file=sys.__stderr__)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_random_worker_deaths_keep_results_identical(self, chaos_rng):
        values = list(range(24))
        victims = set(chaos_rng.choice(len(values), size=4, replace=False).tolist())
        serial = pool_map(_maybe_die, [(v, False) for v in values], workers=1)
        chaotic = pool_map(
            _maybe_die,
            [(v, i in victims) for i, v in enumerate(values)],
            workers=3,
        )
        assert chaotic == serial

    def test_death_during_sharded_synthesis(self, chaos_rng):
        # shard_fgn itself never kills workers; this drives it through
        # a pool whose workers are killed externally mid-run.
        n, shard_size, overlap = 40_001, 5_000, 250
        seed = int(chaos_rng.integers(0, 2**31))
        reference = shard_fgn(
            n, 0.8, seed=seed, shard_size=shard_size, overlap=overlap, workers=1
        )

        killer_done = False

        def kill_one_worker():
            nonlocal killer_done
            if killer_done:
                return
            children = multiprocessing.active_children()
            if children:
                try:
                    os.kill(children[0].pid, signal.SIGKILL)
                    killer_done = True
                except (ProcessLookupError, PermissionError):
                    pass

        import threading

        stop = threading.Event()

        def killer():
            deadline = time.monotonic() + 20.0
            while not stop.is_set() and time.monotonic() < deadline:
                kill_one_worker()
                time.sleep(0.01)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        try:
            chaotic = shard_fgn(
                n, 0.8, seed=seed, shard_size=shard_size, overlap=overlap, workers=3
            )
        finally:
            stop.set()
            thread.join(timeout=5.0)
        np.testing.assert_array_equal(chaotic, reference)


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
