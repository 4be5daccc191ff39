"""Chaos wall for the distributed coordinator (ISSUE 8 acceptance).

The invariant under test: a campaign that loses nodes mid-flight --
killed, hung, stalled, partitioned, or degraded all the way to local
fallback -- produces **bit-identical results and checkpoint digests**
to the uninterrupted single-node run.  Node loss keeps the attempt
number (same derived seed, same bits); only genuine task failures
rotate seeds.

Scenarios are driven by seeded :class:`~repro.dist.FaultScript`\\ s
whose seeds rotate with the nightly ``--qa-seed``, so every night
explores a fresh corner of the fault space while any failure
reproduces exactly from the report header.  Worker counts {1, 2, 5}
are crossed with two fault seeds per count, per the acceptance
criteria; the count-1 kill exercises the local-fallback path.

Marked tier2: multi-second sleeps on lease expiry make this a nightly
job, not a PR gate (a 3-node smoke slice runs on PRs from CI directly).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dist import (
    DistError,
    FaultEvent,
    FaultScript,
    SimCluster,
    fgn_tasks,
    run_distributed,
)
from repro.par.pool import derive_task_seed
from repro.qa.golden import diff_digests, summarize

pytestmark = pytest.mark.tier2

BASE_SEED = 7
N_TASKS = 8
TASK_N = 1_024


@pytest.fixture
def chaos_seed(request):
    """Scenario seed rotated by the nightly ``--qa-seed``.

    Derived per-test so scenarios are independent; the value is echoed
    in the failure message via the FaultScript repr, and any night's
    run reproduces with ``--qa-seed <reported>``.
    """
    return derive_task_seed(request.config.getoption("--qa-seed"), 0,
                         label=request.node.nodeid)


def _tasks():
    return fgn_tasks(N_TASKS, TASK_N, hurst=0.8)


def _digest(results):
    """JSON-normalized golden digest of a result mapping."""
    return json.loads(json.dumps(summarize(results)))


def _checkpoint_digests(root):
    """``{task_id: golden digest}`` from the checkpoint metadata files."""
    digests = {}
    for meta_path in sorted(root.glob("*.json")):
        if meta_path.name == "campaign.json":
            continue
        meta = json.loads(meta_path.read_text())
        digests[meta["experiment"]] = meta["digest"]
    return digests


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The golden single-node run every chaos scenario must match."""
    ckpt = tmp_path_factory.mktemp("golden-ckpt")
    with SimCluster(1) as cluster:
        report = run_distributed(
            _tasks(), cluster.endpoints(), base_seed=BASE_SEED,
            lease_s=5.0, checkpoint_dir=ckpt,
        )
    assert report.ok and not report.failures
    return {
        "digest": _digest(report.results),
        "checkpoints": _checkpoint_digests(ckpt),
        "results": report.results,
    }


def _assert_identical(report, uninterrupted, ckpt=None):
    __tracebackhide__ = True
    assert report.ok, report.failures
    assert diff_digests(uninterrupted["digest"], _digest(report.results)) == []
    for task_id, golden in uninterrupted["results"].items():
        np.testing.assert_array_equal(golden, report.results[task_id])
    if ckpt is not None:
        assert _checkpoint_digests(ckpt) == uninterrupted["checkpoints"]


class TestChaosWall:
    """Worker counts {1, 2, 5} x 2 rotating fault seeds, digest-identical."""

    @pytest.mark.parametrize("n_nodes", [1, 2, 5])
    @pytest.mark.parametrize("salt", [0, 1])
    def test_random_faults_digest_identical(self, n_nodes, salt, chaos_seed,
                                            uninterrupted, tmp_path):
        fault_seed = derive_task_seed(chaos_seed, salt, label=f"faults-{n_nodes}")
        names = [f"n{i}" for i in range(n_nodes)]
        # max_task 2: with 8 tasks over n nodes every node sees at least
        # two, so scripted events reliably fire (at_task beyond a node's
        # share would silently never trigger).
        script = FaultScript.random(
            fault_seed, names, n_events=max(1, n_nodes - 1), max_task=2,
            duration_s=0.5,
        )
        ckpt = tmp_path / "ckpt"
        with SimCluster(n_nodes, script=script) as cluster:
            report = run_distributed(
                _tasks(), cluster.endpoints(), base_seed=BASE_SEED,
                lease_s=0.3, timeout_s=2.7, checkpoint_dir=ckpt,
            )
        assert script.fired, (
            f"fault script {script.events} never fired (seed {fault_seed})"
        )
        _assert_identical(report, uninterrupted, ckpt)

    def test_single_node_killed_degrades_to_local_identically(
            self, uninterrupted, tmp_path):
        script = FaultScript([FaultEvent("n0", "kill", at_task=2)])
        ckpt = tmp_path / "ckpt"
        with SimCluster(1, script=script) as cluster:
            report = run_distributed(
                _tasks(), cluster.endpoints(), base_seed=BASE_SEED,
                lease_s=0.3, checkpoint_dir=ckpt,
            )
        assert report.degraded_to_local
        _assert_identical(report, uninterrupted, ckpt)


class TestKillResumeMigration:
    """The ISSUE headline: killed on node A, resumed on node B."""

    def test_kill_then_resume_on_different_node(self, uninterrupted, tmp_path):
        ckpt = tmp_path / "ckpt"
        script = FaultScript([FaultEvent("n0", "kill", at_task=3, phase="start")])
        with SimCluster(["n0"], script=script) as cluster:
            with pytest.raises(DistError):
                run_distributed(
                    _tasks(), cluster.endpoints(), base_seed=BASE_SEED,
                    lease_s=0.3, checkpoint_dir=ckpt, fallback_local=False,
                )
        partial = _checkpoint_digests(ckpt)
        assert 0 < len(partial) < N_TASKS  # died mid-campaign, some work saved
        # Resume the same campaign on a *different* node.
        with SimCluster(["nB"]) as cluster:
            report = run_distributed(
                _tasks(), cluster.endpoints(), base_seed=BASE_SEED,
                lease_s=5.0, checkpoint_dir=ckpt,
            )
        assert sorted(report.resumed) == sorted(partial)
        _assert_identical(report, uninterrupted, ckpt)

    def test_resume_after_partition_heals(self, uninterrupted, chaos_seed,
                                          tmp_path):
        fault_seed = derive_task_seed(chaos_seed, 0, label="partition")
        script = FaultScript([
            FaultEvent("n0", "partition", at_task=1, phase="finish",
                       duration_s=0.8),
            FaultEvent("n1", "kill", at_task=2, phase="start"),
        ])
        ckpt = tmp_path / "ckpt"
        with SimCluster(3, script=script) as cluster:
            report = run_distributed(
                _tasks(), cluster.endpoints(),
                base_seed=BASE_SEED, lease_s=0.3, timeout_s=2.7,
                checkpoint_dir=ckpt,
            )
        assert {e.kind for e in script.fired} == {"partition", "kill"}, fault_seed
        _assert_identical(report, uninterrupted, ckpt)


class TestFlightDeterminism:
    """ISSUE 9 acceptance: the flight recording's canonical projection
    (per-task terminal outcomes: id, attempt, seed, status) is
    byte-identical at worker counts {1, 2, 5}, fault scripts included
    -- node loss keeps attempt numbers, so the projection is a function
    of ``(tasks, base_seed)`` alone.  Full recordings (scheduling-
    dependent by nature) are persisted to ``REPRO_CHAOS_FLIGHT_DIR``
    when set, so nightly CI can attach them to failures."""

    def test_canonical_recording_identical_across_worker_counts(
            self, chaos_seed, tmp_path):
        import os

        from repro.obs import flight as obs_flight

        out_dir = os.environ.get("REPRO_CHAOS_FLIGHT_DIR")
        out_dir = tmp_path if out_dir is None else __import__("pathlib").Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        canonical = {}
        try:
            for n_nodes in (1, 2, 5):
                names = [f"n{i}" for i in range(n_nodes)]
                fault_seed = derive_task_seed(chaos_seed, 0, label=f"flight-{n_nodes}")
                script = FaultScript.random(
                    fault_seed, names, n_events=max(1, n_nodes - 1),
                    max_task=2, duration_s=0.5,
                )
                flight_path = out_dir / f"flight-{n_nodes}w.jsonl"
                with SimCluster(n_nodes, script=script) as cluster:
                    report = run_distributed(
                        _tasks(), cluster.endpoints(), base_seed=BASE_SEED,
                        lease_s=0.3, timeout_s=2.7,
                        flight_path=str(flight_path),
                    )
                assert report.ok, report.failures
                recording = obs_flight.recorder()
                # The full ordered recording landed on disk...
                assert flight_path.exists() and flight_path.stat().st_size > 0
                # ...and the canonical projection is worker-count-free.
                canonical[n_nodes] = (
                    "\n".join(recording.canonical_lines()) + "\n"
                ).encode()
        finally:
            obs_flight.configure()  # restore the gated default recorder
        assert len(canonical) == 3
        assert canonical[1] == canonical[2] == canonical[5], (
            f"canonical flight projections diverged (qa chaos seed {chaos_seed})"
        )
        # Every task reached a terminal outcome exactly once.
        assert len(canonical[1].splitlines()) == N_TASKS
