"""Chaos tests over the real 25-experiment campaign (tier 2).

The acceptance scenarios for :mod:`repro.resilience`: a quick campaign
SIGKILLed mid-run resumes to digest-identical results, and an injected
transient fault plan completes the full suite while the failure report
lists exactly the injected faults.  These drive the actual experiment
suite, so they are minutes-scale and ride the nightly tier-2 job.
"""

import json
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments.runner import run_all
from repro.par.pool import derive_task_seed
from repro.qa.golden import diff_digests, summarize
from repro.resilience.faults import FaultPlan, TransientFault

pytestmark = pytest.mark.tier2


def campaign_digest(results):
    """JSON-normalized golden digest of a full results dict."""
    return json.loads(json.dumps(summarize(results)))


@pytest.fixture
def chaos_rng(request):
    """Scenario-shaping rng rotated by the nightly ``--qa-seed``.

    Chooses *which* experiments get faulted and *where* the kill lands,
    so every nightly run exercises a fresh scenario while staying
    reproducible from the printed seed.
    """
    return np.random.default_rng(
        derive_task_seed(request.config.getoption("--qa-seed"), 0,
                         label=request.node.nodeid)
    )


@pytest.fixture(scope="module")
def uninterrupted():
    """One uninterrupted quick campaign shared by the scenarios."""
    return run_all(quick=True)


class TestKillAndResume:
    def test_sigkill_then_resume_is_digest_identical(self, tmp_path, uninterrupted,
                                                     chaos_rng):
        ckpt = tmp_path / "ckpt"
        kill_after = int(chaos_rng.integers(2, 8))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.experiments.runner import run_all\n"
                f"run_all(quick=True, checkpoint_dir={str(ckpt)!r})\n",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
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

        report = run_all(quick=True, checkpoint_dir=str(ckpt), resume=True,
                         report=True)
        assert report.ok
        assert len(report.results) == 25
        assert set(report.resumed) == set(completed)
        assert diff_digests(
            campaign_digest(uninterrupted), campaign_digest(report.results)
        ) == []

    def test_resume_refuses_drifted_configuration(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        plan = FaultPlan().fail_at("experiment:table3", call=1, exc=ValueError)
        with plan.active():
            report = run_all(quick=True, checkpoint_dir=str(ckpt), report=True)
        assert not report.ok  # table3 failed terminally, rest completed
        with pytest.raises(ValueError, match="different campaign"):
            run_all(quick=True, sim_frames=5_000, checkpoint_dir=str(ckpt),
                    resume=True, report=True)


class TestInjectedTransients:
    def test_first_attempts_fail_campaign_completes(self, uninterrupted, chaos_rng):
        targets = tuple(
            chaos_rng.choice(sorted(uninterrupted), size=3, replace=False)
        )
        plan = FaultPlan(seed=11)
        for eid in targets:
            plan.fail_at(f"experiment:{eid}", call=1, exc=TransientFault)
        with plan.active():
            report = run_all(quick=True, max_retries=2, report=True,
                             sleep=lambda s: None)
        assert report.ok
        assert len(report.results) == 25
        # The failure report lists exactly the injected faults.
        assert sorted(f.experiment_id for f in report.attempt_failures) == sorted(targets)
        assert all(f.transient for f in report.attempt_failures)
        assert sorted(f.site for f in plan.injected) == sorted(
            f"experiment:{e}" for e in targets
        )
        assert diff_digests(
            campaign_digest(uninterrupted), campaign_digest(report.results)
        ) == []
