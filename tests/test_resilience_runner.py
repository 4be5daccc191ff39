"""Tests for the resilient campaign supervisor and checkpoint store.

These run on fast toy experiment specs; the full-campaign chaos tests
(subprocess SIGKILL and resume, injected faults over the real 21-entry
suite) live in ``test_resilience_chaos.py`` at tier 2.
"""

import json

import numpy as np
import pytest

from repro.par.pool import derive_task_seed
from repro.resilience.faults import FaultPlan, TransientFault
from repro.resilience.runner import (
    CheckpointStore,
    ExperimentSpec,
    run_campaign,
)


def toy_specs():
    return [
        ExperimentSpec("alpha", lambda seed: {"value": 1.0}),
        ExperimentSpec("beta", lambda seed: {"value": 2.0, "seed": seed}),
        ExperimentSpec("gamma", lambda seed: [1, 2, 3]),
    ]


class TestSeeds:
    def test_stable(self):
        assert derive_task_seed(0, 0, label="fig07") == derive_task_seed(
            0, 0, label="fig07"
        )

    def test_rotates_per_attempt_and_experiment(self):
        seeds = {
            derive_task_seed(0, 0, label="fig07"),
            derive_task_seed(0, 1, label="fig07"),
            derive_task_seed(0, 0, label="fig08"),
            derive_task_seed(1, 0, label="fig07"),
        }
        assert len(seeds) == 4


class TestSupervisor:
    def test_all_complete(self):
        report = run_campaign(toy_specs())
        assert report.ok
        assert set(report.results) == {"alpha", "beta", "gamma"}
        assert [r.status for r in report.records] == ["completed"] * 3
        # The sha256 of "0:beta:0"; changing it moves every checkpoint
        # digest.
        assert report.results["beta"]["seed"] == derive_task_seed(0, 0, label="beta")
        assert report.results["beta"]["seed"] == 9132305468479305054

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign([ExperimentSpec("a", lambda s: 1),
                          ExperimentSpec("a", lambda s: 2)])

    def test_terminal_failure_isolated(self):
        def broken(seed):
            raise ValueError("deterministic defect")

        specs = [ExperimentSpec("bad", broken)] + toy_specs()
        report = run_campaign(specs, max_retries=3, sleep=lambda s: None)
        assert not report.ok
        # ValueError is not transient: exactly one attempt, no retries.
        assert len(report.attempt_failures) == 1
        failure = report.failures[0]
        assert failure.experiment_id == "bad"
        assert failure.error_type == "ValueError"
        assert not failure.transient
        assert "deterministic defect" in failure.traceback
        # The rest of the campaign still ran.
        assert set(report.results) == {"alpha", "beta", "gamma"}

    def test_fail_fast_reraises(self):
        def broken(seed):
            raise ValueError("defect")

        with pytest.raises(ValueError, match="defect"):
            run_campaign([ExperimentSpec("bad", broken)], fail_fast=True)

    def test_transient_retry_with_seed_rotation(self):
        seen = []

        def flaky(seed):
            seen.append(seed)
            if len(seen) < 3:
                raise TransientFault("not yet")
            return "done"

        slept = []
        report = run_campaign(
            [ExperimentSpec("flaky", flaky)],
            max_retries=2, sleep=slept.append,
        )
        assert report.ok
        assert report.results["flaky"] == "done"
        assert len(seen) == 3 and len(set(seen)) == 3
        assert slept == [0.05, 0.1]
        assert [f.transient for f in report.attempt_failures] == [True, True]
        assert report.records[0].attempts == 3

    def test_retry_warning_logged_the_moment_it_happens(self, caplog):
        """A retry must surface as a structured WARNING (experiment id
        + attempt number) *before* the backoff sleep -- a hung campaign
        tells you what it is retrying while it happens, not at the end."""
        import logging

        calls = []

        def flaky(seed):
            calls.append(seed)
            if len(calls) < 2:
                raise TransientFault("not yet")
            return "done"

        warned_before_sleep = []

        def sleep(seconds):
            warned_before_sleep.append(any(
                r.levelno == logging.WARNING and getattr(r, "experiment", None) == "flaky"
                for r in caplog.records
            ))

        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            report = run_campaign([ExperimentSpec("flaky", flaky)],
                                  max_retries=1, sleep=sleep)
        assert report.ok
        assert warned_before_sleep == [True]
        record = next(r for r in caplog.records if r.levelno == logging.WARNING)
        assert record.experiment == "flaky"
        assert record.attempt == 1
        assert record.error_type == "TransientFault"
        assert "retrying" in record.getMessage()

    def test_terminal_failure_logged_as_error(self, caplog):
        import logging

        def broken(seed):
            raise ValueError("defect")

        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            report = run_campaign([ExperimentSpec("bad", broken)],
                                  max_retries=2, sleep=lambda s: None)
        assert not report.ok
        record = next(r for r in caplog.records if r.levelno == logging.ERROR)
        assert record.experiment == "bad"
        assert record.attempt == 1  # deterministic defect: no retries
        assert "failed terminally" in record.getMessage()

    def test_retry_budget_exhausted(self):
        def always(seed):
            raise TransientFault("forever")

        report = run_campaign([ExperimentSpec("always", always)],
                              max_retries=2, sleep=lambda s: None)
        assert not report.ok
        assert len(report.attempt_failures) == 3
        assert report.records[0].status == "failed"

    def test_soft_timeout(self):
        import time

        def slow(seed):
            time.sleep(5.0)
            return "late"

        report = run_campaign([ExperimentSpec("slow", slow)], timeout_s=0.1)
        assert not report.ok
        assert report.failures[0].error_type == "TimeoutError"
        assert "soft timeout" in report.failures[0].message

    def test_injected_faults_match_report(self):
        plan = FaultPlan().fail_at("experiment:beta", call=1, exc=TransientFault)
        with plan.active():
            report = run_campaign(toy_specs(), max_retries=1, sleep=lambda s: None)
        assert report.ok
        assert [f.experiment_id for f in report.attempt_failures] == ["beta"]
        assert [f.site for f in plan.injected] == ["experiment:beta"]

    def test_event_callback(self):
        events = []
        run_campaign(toy_specs(), on_event=lambda k, e, d: events.append((k, e)))
        assert ("start", "alpha") in events
        assert ("completed", "gamma") in events


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        result = {"x": np.arange(5.0), "label": "hi"}
        store.save("exp", result, seed=7, attempts=1, wall_time=0.5)
        loaded, meta = store.load("exp")
        np.testing.assert_array_equal(loaded["x"], result["x"])
        assert meta["seed"] == 7
        assert store.completed() == ["exp"]

    def test_corrupt_payload_invalidates(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("exp", {"x": 1.0}, seed=0, attempts=1, wall_time=0.0)
        payload = tmp_path / "exp.pkl"
        payload.write_bytes(payload.read_bytes()[:-4])
        assert store.load("exp") is None

    def test_drifted_digest_invalidates(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("exp", {"x": 1.0}, seed=0, attempts=1, wall_time=0.0)
        meta_path = tmp_path / "exp.json"
        meta = json.loads(meta_path.read_text())
        meta["digest"]["x"] = 2.0
        meta_path.write_text(json.dumps(meta))
        assert store.load("exp") is None

    def test_manifest_drift_refuses_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_manifest({"quick": True, "n_frames": 100})
        store.check_manifest({"quick": True, "n_frames": 100})  # same: fine
        with pytest.raises(ValueError, match="different campaign"):
            store.check_manifest({"quick": False, "n_frames": 100})

    def test_campaign_resume_skips_completed(self, tmp_path):
        calls = []

        def tracked(name):
            def fn(seed):
                calls.append(name)
                return {"name": name}
            return ExperimentSpec(name, fn)

        specs = [tracked("a"), tracked("b")]
        first = run_campaign(specs, checkpoint_dir=tmp_path)
        assert first.ok and calls == ["a", "b"]
        second = run_campaign(specs, checkpoint_dir=tmp_path, resume=True)
        assert second.ok and calls == ["a", "b"]  # nothing re-ran
        assert second.resumed == ["a", "b"]
        assert [r.status for r in second.records] == ["resumed", "resumed"]
        assert second.results == first.results

    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        """In-process kill-and-resume: results match an uninterrupted run."""
        def make_specs(bomb):
            def b(seed):
                if bomb:
                    raise KeyboardInterrupt
                return {"v": 2.0}

            return [
                ExperimentSpec("one", lambda seed: {"v": 1.0}),
                ExperimentSpec("two", b),
                ExperimentSpec("three", lambda seed: {"v": 3.0}),
            ]

        with pytest.raises(KeyboardInterrupt):
            run_campaign(make_specs(bomb=True), checkpoint_dir=tmp_path)
        # "one" was checkpointed before the kill.
        assert CheckpointStore(tmp_path).completed() == ["one"]
        resumed = run_campaign(make_specs(bomb=False), checkpoint_dir=tmp_path)
        uninterrupted = run_campaign(make_specs(bomb=False))
        assert resumed.ok
        assert resumed.resumed == ["one"]
        assert resumed.results == uninterrupted.results

    def test_tuple_specs_accepted(self, tmp_path):
        report = run_campaign([("t", lambda seed: 42)], checkpoint_dir=tmp_path)
        assert report.results["t"] == 42

    def test_summary_lines_mention_failures(self):
        def broken(seed):
            raise ValueError("nope")

        report = run_campaign([ExperimentSpec("bad", broken)] + toy_specs())
        lines = report.summary_lines()
        assert "3/4 experiments completed" in lines[0]
        assert any("FAILED: bad" in line for line in lines)
