"""Tier-1 tests for cluster-wide observability.

Covers the four pieces this layer is made of: the flight recorder
(ring semantics, gating, streaming, atomic persistence, crash hooks,
the canonical determinism projection), heartbeat metric scraping
(``diff_dump``/``relabel_dump``/``ScrapeMerger`` under duplicated,
reordered and restarted-worker scrapes), cross-node trace propagation
(detached attempt spans stitched into one coordinator forest, killed
attempts included), and the ``repro dist top`` console over the
streamed recording.  The worker-count byte-identity wall for the
canonical projection is tier-2 in ``test_dist_chaos.py``.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import repro.obs as obs
from repro.dist import (
    FaultScript,
    SimCluster,
    TaskSpec,
    TopView,
    run_distributed,
)
from repro.dist import protocol
from repro.dist.top import read_events, run_top
from repro.obs import flight as obs_flight
from repro.obs import metrics, trace
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import ScrapeMerger, diff_dump, relabel_dump
from repro.obs.report import git_revision_info
from repro.par.pool import derive_task_seed


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    trace.reset()
    metrics.registry().reset()
    obs_flight.configure()  # fresh gated default recorder
    yield
    obs.disable()
    trace.reset()
    metrics.registry().reset()
    obs_flight.configure()


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("tick", i=i)
        events = rec.events()
        assert [e["i"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert all(e["kind"] == "tick" for e in events)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_gated_recorder_follows_obs_flag(self):
        rec = FlightRecorder(gated=True)
        assert rec.record("dropped") is None
        assert rec.events() == []
        obs.enable()
        assert rec.record("kept")["kind"] == "kept"
        assert len(rec.events()) == 1

    def test_explicit_recorder_always_records(self):
        rec = FlightRecorder()
        assert rec.record("kept")["kind"] == "kept"

    def test_streaming_appends_live(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(path=path)
        rec.record("a")
        rec.record("b", x=1)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["kind"] for e in lines] == ["a", "b"]
        rec.close()

    def test_persist_rewrites_ring_atomically(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(capacity=2, path=path)
        for i in range(4):
            rec.record("tick", i=i)
        assert rec.persist() == path
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["i"] for e in lines] == [2, 3]  # only the retained ring
        assert [p.name for p in tmp_path.iterdir()] == ["flight.jsonl"]  # no temp file
        rec.close()

    def test_persist_without_path_is_noop(self):
        assert FlightRecorder().persist() is None

    def test_broken_stream_never_raises(self, tmp_path):
        rec = FlightRecorder(path=tmp_path / "flight.jsonl")
        rec._stream.close()  # simulate the fd dying under the recorder
        rec.record("still_fine")
        assert rec.events()[0]["kind"] == "still_fine"

    def test_excepthook_persists_on_crash(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(path=path)
        previous = sys.excepthook
        rec.arm()
        try:
            rec.record("before_crash")
            sys.excepthook(ValueError, ValueError("boom"), None)
        finally:
            rec.disarm()
        assert sys.excepthook is previous
        kinds = [e["kind"] for e in read_events(path)]
        assert kinds == ["before_crash", "crash"]
        crash = read_events(path)[-1]
        assert crash["error_type"] == "ValueError"
        rec.close()

    def test_arm_requires_a_path(self):
        with pytest.raises(ValueError, match="path"):
            FlightRecorder().arm()

    def test_canonical_lines_project_terminal_outcomes(self):
        rec = FlightRecorder()
        rec.record("task_assigned", task_id="b", node="n0", attempt=0, seed=1)
        rec.record("task_failed", task_id="b", attempt=0, seed=1,
                   error_type="ValueError")
        rec.record("task_completed", task_id="b", node="n1", attempt=1, seed=2)
        rec.record("task_completed", task_id="a", node="n0", attempt=0, seed=9)
        rec.record("node_lost", node="n0", reason="x")  # ignored
        lines = rec.canonical_lines()
        docs = [json.loads(l) for l in lines]
        assert [d["task_id"] for d in docs] == ["a", "b"]  # sorted
        assert docs[1] == {"task_id": "b", "attempt": 1, "seed": 2,
                           "status": "completed"}  # last terminal event wins

    def test_configure_replaces_default(self, tmp_path):
        first = obs_flight.recorder()
        new = obs_flight.configure(path=tmp_path / "f.jsonl")
        assert obs_flight.recorder() is new
        assert new is not first
        assert not new.gated  # a path opts in

    def test_clear_restarts_sequence(self):
        rec = FlightRecorder()
        rec.record("a")
        rec.clear()
        assert rec.events() == []
        assert rec.record("b")["seq"] == 1


# ----------------------------------------------------------------------
# Heartbeat scrape merging
# ----------------------------------------------------------------------
def _counter_dump(value, name="jobs_total"):
    return {name: {"type": "counter", "help": "", "unit": None,
                   "labels": {}, "value": value}}


def _hist_dump(buckets, total, count, bounds=(1.0, float("inf"))):
    cumulative = {}
    running = 0
    for bound, n in zip(bounds, buckets):
        running += n
        key = "+Inf" if bound == float("inf") else f"{bound:g}"
        cumulative[key] = running
    return {"lat": {"type": "histogram", "help": "", "unit": None,
                    "labels": {}, "buckets": cumulative,
                    "sum": total, "count": count}}


class TestDiffDump:
    def test_counter_delta(self):
        out = diff_dump(_counter_dump(7), _counter_dump(4))
        assert out["jobs_total"]["value"] == 3

    def test_counter_restart_uses_full_value(self):
        # A restarted worker's counter going backwards means the old
        # total was already merged by a previous scrape of the old
        # incarnation; the new incarnation starts over.
        out = diff_dump(_counter_dump(2), _counter_dump(9))
        assert out["jobs_total"]["value"] == 2

    def test_new_entries_pass_through_whole(self):
        out = diff_dump(_counter_dump(5), {})
        assert out["jobs_total"]["value"] == 5

    def test_histogram_per_bucket_delta(self):
        old = _hist_dump([2, 1], total=3.5, count=3)
        new = _hist_dump([5, 2], total=9.0, count=7)
        out = diff_dump(new, old)
        assert out["lat"]["buckets"] == {"1": 3, "+Inf": 4}
        assert out["lat"]["count"] == 4
        assert out["lat"]["sum"] == pytest.approx(5.5)

    def test_histogram_bounds_mismatch_hard_errors(self):
        old = _hist_dump([2, 1], total=3.0, count=3, bounds=(1.0, float("inf")))
        new = _hist_dump([2, 1, 1], total=4.0, count=4,
                         bounds=(1.0, 2.0, float("inf")))
        with pytest.raises(ValueError, match="bucket bounds"):
            diff_dump(new, old)


class TestRelabelDump:
    def test_label_folded_into_key(self):
        out = relabel_dump(_counter_dump(3), node="n0")
        (key,) = out.keys()
        assert key == 'jobs_total{node="n0"}'
        assert out[key]["labels"] == {"node": "n0"}

    def test_merges_with_existing_labels(self):
        dump = {'t{k="v"}': {"type": "counter", "help": "", "unit": None,
                             "labels": {"k": "v"}, "value": 1}}
        out = relabel_dump(dump, node="n1")
        (key,) = out.keys()
        assert "k=" in key and 'node="n1"' in key


class TestScrapeMerger:
    def test_cumulative_scrapes_merge_as_deltas(self):
        into = metrics.MetricsRegistry()
        merger = ScrapeMerger(into=into)
        assert merger.ingest("n0", 1, _counter_dump(3))
        assert merger.ingest("n0", 2, _counter_dump(8))
        dump = into.to_dict()
        assert dump['jobs_total{node="n0"}']["value"] == 8

    def test_duplicate_seq_is_idempotent(self):
        # A heartbeat retransmitted behind a healed partition must not
        # double-count.
        into = metrics.MetricsRegistry()
        merger = ScrapeMerger(into=into)
        merger.ingest("n0", 1, _counter_dump(5))
        assert not merger.ingest("n0", 1, _counter_dump(5))
        assert into.to_dict()['jobs_total{node="n0"}']["value"] == 5

    def test_out_of_order_scrape_dropped(self):
        into = metrics.MetricsRegistry()
        merger = ScrapeMerger(into=into)
        merger.ingest("n0", 3, _counter_dump(9))
        assert not merger.ingest("n0", 2, _counter_dump(4))
        assert into.to_dict()['jobs_total{node="n0"}']["value"] == 9
        assert merger.seen("n0") == 3

    def test_series_already_under_the_node_label_adds(self):
        # A forked worker inherits the coordinator's zeroed jobs_total
        # {node="n0"}; relabeling folds both entries onto one key, and
        # the zero must not overwrite the worker's own count.
        into = metrics.MetricsRegistry()
        dump = {**_counter_dump(4),
                'jobs_total{node="n0"}': {"type": "counter", "help": "",
                                          "unit": None,
                                          "labels": {"node": "n0"}, "value": 0}}
        ScrapeMerger(into=into).ingest("n0", 1, dump)
        assert into.to_dict()['jobs_total{node="n0"}']["value"] == 4

    def test_nodes_are_independent(self):
        into = metrics.MetricsRegistry()
        merger = ScrapeMerger(into=into)
        merger.ingest("n0", 1, _counter_dump(2))
        merger.ingest("n1", 1, _counter_dump(7))
        dump = into.to_dict()
        assert dump['jobs_total{node="n0"}']["value"] == 2
        assert dump['jobs_total{node="n1"}']["value"] == 7

    def test_worker_restart_not_double_counted(self):
        into = metrics.MetricsRegistry()
        merger = ScrapeMerger(into=into)
        merger.ingest("n0", 1, _counter_dump(6))
        # Node process restarts: seq resets too, so a fresh seq=1 from
        # the new incarnation is dropped; only seq progress re-admits.
        assert not merger.ingest("n0", 1, _counter_dump(2))
        assert merger.ingest("n0", 2, _counter_dump(2))
        # Counter went backwards inside an admitted scrape -> full new
        # value added, not a negative delta.
        assert into.to_dict()['jobs_total{node="n0"}']["value"] == 8

    def test_empty_dump_ignored(self):
        merger = ScrapeMerger(into=metrics.MetricsRegistry())
        assert not merger.ingest("n0", 1, {})
        assert merger.seen("n0") == 0


# ----------------------------------------------------------------------
# Trace propagation
# ----------------------------------------------------------------------
class TestTracePropagation:
    def test_trace_id_is_seed_deterministic(self):
        assert trace.new_trace_id(7) == trace.new_trace_id(7)
        assert trace.new_trace_id(7) != trace.new_trace_id(8)
        assert trace.new_trace_id() != trace.new_trace_id()

    def test_detached_span_skips_collector(self):
        obs.enable()
        with trace.span("attempt", detached=True) as sp:
            pass
        assert trace.snapshot() == []
        assert sp.to_dict()["name"] == "attempt"

    def test_adopt_grafts_remote_tree_under_trace_id(self):
        obs.enable()
        with trace.span("campaign") as campaign:
            campaign.trace_id = "abc123"
            campaign.adopt({"name": "dist.task", "wall_s": 0.5,
                            "attrs": {"task": "t0"}})
        (root,) = trace.snapshot()
        child = root["children"][0]
        assert child["trace_id"] == "abc123"
        assert child["attrs"]["task"] == "t0"

    def test_adopt_rejects_non_span_dicts(self):
        obs.enable()
        with trace.span("campaign") as campaign:
            with pytest.raises(ValueError, match="adopt"):
                campaign.adopt({"no": "name"})

    def test_plain_spans_carry_no_trace_fields(self):
        obs.enable()
        with trace.span("local"):
            pass
        (root,) = trace.snapshot()
        assert "trace_id" not in root and "span_id" not in root


def _sleep_tasks(n, duration_s=0.0):
    return [
        TaskSpec(f"t{i}", "sleep", {"duration_s": duration_s, "value": i})
        for i in range(n)
    ]


class TestClusterStitching:
    def test_killed_attempt_and_rerun_in_one_forest(self, tmp_path):
        """The PR's acceptance scenario: sim:3, one worker killed
        mid-task, a single span forest holding the killed attempt (node
        id + attempt seed) and the successful rerun on a survivor."""
        obs.enable()
        flight_path = tmp_path / "flight.jsonl"
        script = FaultScript([
            {"node": "n1", "kind": "kill", "at_task": 1, "phase": "start"},
        ])
        with SimCluster(3, script=script) as cluster:
            report = run_distributed(
                _sleep_tasks(6), cluster.endpoints(), base_seed=7,
                lease_s=0.4, flight_path=str(flight_path),
            )
        assert report.ok
        assert report.node_states["n1"] == "dead"

        campaigns = [r for r in trace.snapshot() if r["name"] == "dist.campaign"]
        assert len(campaigns) == 1
        forest = campaigns[0]
        assert forest["trace_id"] == trace.new_trace_id(7)

        killed = [c for c in forest["children"]
                  if c["name"] == "dist.task" and c.get("error") == "NodeLost"]
        assert len(killed) == 1
        killed_task = killed[0]["attrs"]["task"]
        assert killed[0]["attrs"]["node"] == "n1"
        assert killed[0]["attrs"]["seed"] == derive_task_seed(7, 0, label=killed_task)

        # The rerun: same task, same attempt/seed, on a survivor, with
        # the worker's shipped dist.attempt subtree underneath.
        reruns = [c for c in forest["children"]
                  if c["name"] == "dist.task" and "error" not in c
                  and c["attrs"]["task"] == killed_task]
        assert len(reruns) == 1
        assert reruns[0]["attrs"]["node"] != "n1"
        assert reruns[0]["attrs"]["seed"] == killed[0]["attrs"]["seed"]
        (attempt,) = reruns[0]["children"]
        assert attempt["name"] == "dist.attempt"
        assert attempt["trace_id"] == forest["trace_id"]
        assert attempt["attrs"]["parent_span_id"] == forest["span_id"]

        # Every completed task carries an adopted worker attempt span.
        ok_tasks = [c for c in forest["children"]
                    if c["name"] == "dist.task" and "error" not in c]
        assert len(ok_tasks) == 6

        # And the flight recording replays the failure in order.
        kinds = [e["kind"] for e in read_events(flight_path)]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_finished"
        assert (kinds.index("fault_injected")
                < kinds.index("lease_expired")
                < kinds.index("task_reassigned"))

    def test_timed_attempt_spans_nest_under_dist_task(self, monkeypatch):
        """With ``timeout_s`` the task runs on the soft-timeout thread;
        its spans still nest under the shipped ``dist.attempt``, which
        still measures the attempt's own CPU time."""
        def _spanned(params, seed):
            with trace.span("probe.inner"):
                end = time.thread_time() + 0.02
                while time.thread_time() < end:
                    pass
            return params["value"]

        monkeypatch.setitem(protocol._KINDS, "spanned", _spanned)
        obs.enable()
        tasks = [TaskSpec(f"t{i}", "spanned", {"value": i}) for i in range(3)]
        with SimCluster(2) as cluster:
            report = run_distributed(tasks, cluster.endpoints(), lease_s=2.0,
                                     timeout_s=30.0)
        assert report.ok
        roots = trace.snapshot()
        assert [r["name"] for r in roots] == ["dist.campaign"]
        done = [c for c in roots[0]["children"] if c["name"] == "dist.task"]
        assert len(done) == 3
        for task in done:
            (attempt,) = task["children"]
            assert attempt["name"] == "dist.attempt"
            assert [c["name"] for c in attempt["children"]] == ["probe.inner"]
            assert attempt["cpu_s"] >= 0.019

    def test_heartbeat_scrapes_merge_into_node_series(self):
        obs.enable()
        with SimCluster(2) as cluster:
            report = run_distributed(_sleep_tasks(4), cluster.endpoints(),
                                     lease_s=2.0)
        assert report.ok
        dump = metrics.registry().to_dict()
        per_node = {
            key: m["value"] for key, m in dump.items()
            if key.startswith("repro_dist_worker_tasks_total{")
        }
        assert per_node  # node="..."-labeled series exist
        assert sum(per_node.values()) == 4
        assert all('node="' in key for key in per_node)

    def test_disabled_obs_ships_no_scrapes_or_spans(self):
        with SimCluster(2) as cluster:
            report = run_distributed(_sleep_tasks(3), cluster.endpoints(),
                                     lease_s=2.0)
        assert report.ok
        assert trace.snapshot() == []
        # Metric identities persist across registry resets, so check
        # that no worker-scraped series accumulated any value.
        dump = metrics.registry().to_dict()
        for key, m in dump.items():
            if "repro_dist_worker" in key:
                assert m.get("value", m.get("count", 0)) == 0, key


# ----------------------------------------------------------------------
# git_revision_info degradation
# ----------------------------------------------------------------------
class TestGitRevisionInfo:
    def test_inside_checkout(self):
        rev, reason = git_revision_info()
        assert rev is not None and reason is None

    def test_outside_checkout_gives_reason(self, tmp_path):
        rev, reason = git_revision_info(cwd=tmp_path)
        assert rev is None
        assert reason  # e.g. "fatal: not a git repository ..."

    def test_git_missing_gives_reason(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        rev, reason = git_revision_info()
        assert rev is None
        assert reason == "git executable not found"

    def test_run_report_records_reason(self, tmp_path, monkeypatch):
        from repro.obs.report import RunReport

        monkeypatch.chdir(tmp_path)
        doc = RunReport("unit").finish().to_dict()
        assert doc["git_rev"] is None
        assert doc["git_rev_reason"]


# ----------------------------------------------------------------------
# repro dist top
# ----------------------------------------------------------------------
def _demo_events():
    return [
        {"seq": 1, "t": 0.0, "kind": "campaign_start", "tasks": 3, "nodes": 2},
        {"seq": 2, "t": 0.1, "kind": "task_assigned", "task_id": "t0",
         "node": "n0", "attempt": 0, "seed": 1},
        {"seq": 3, "t": 0.2, "kind": "task_assigned", "task_id": "t1",
         "node": "n1", "attempt": 0, "seed": 2},
        {"seq": 4, "t": 1.0, "kind": "task_completed", "task_id": "t0",
         "node": "n0", "attempt": 0, "seed": 1},
        {"seq": 5, "t": 1.1, "kind": "lease_expired", "node": "n1",
         "task_id": "t1", "attempt": 0},
        {"seq": 6, "t": 1.2, "kind": "node_lost", "node": "n1", "reason": "x"},
        {"seq": 7, "t": 1.3, "kind": "task_reassigned", "task_id": "t1",
         "node": "n1", "attempt": 0},
        {"seq": 8, "t": 1.4, "kind": "task_assigned", "task_id": "t1",
         "node": "n0", "attempt": 0, "seed": 2},
        {"seq": 9, "t": 2.0, "kind": "task_completed", "task_id": "t1",
         "node": "n0", "attempt": 0, "seed": 2},
    ]


class TestTopView:
    def test_folds_events_into_state(self):
        view = TopView().feed_all(_demo_events())
        assert view.tasks_total == 3
        assert view.completed == 2 and view.failed == 0
        assert view.reassignments == 1
        assert view.nodes["n0"].completed == 2
        assert view.nodes["n1"].state == "dead"
        assert view.nodes["n1"].lease_expiries == 1
        assert view.finished is None

    def test_throughput_and_eta(self):
        view = TopView().feed_all(_demo_events())
        assert view.throughput() == pytest.approx(2 / 2.0)
        assert view.eta_s() == pytest.approx(1 / 1.0)

    def test_render_lines_shape(self):
        view = TopView().feed_all(_demo_events())
        lines = view.render_lines()
        assert "2/3 tasks" in lines[0]
        assert "status: running" in lines[0]
        assert any("n1" in line and "dead" in line for line in lines)
        rendered = "\n".join(lines)
        assert "retries: 0" in rendered and "eta:" in rendered

    def test_terminal_event_sets_status(self):
        events = _demo_events() + [
            {"seq": 10, "t": 2.1, "kind": "task_completed", "task_id": "t2",
             "node": "n0", "attempt": 0, "seed": 3},
            {"seq": 11, "t": 2.2, "kind": "campaign_finished", "completed": 3,
             "tasks": 3, "failures": 0},
        ]
        view = TopView().feed_all(events)
        assert view.finished == "campaign_finished"
        assert "status: campaign_finished" in view.render_lines()[0]
        assert view.eta_s() == 0.0

    def test_read_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        path.write_text('{"kind": "a", "t": 0}\n{"kind": "b", "t"\n')
        events = read_events(path)
        assert [e["kind"] for e in events] == ["a"]

    def test_run_top_one_shot(self, tmp_path, capsys):
        path = tmp_path / "flight.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in _demo_events()) + "\n")
        view = run_top(path)
        out = capsys.readouterr().out
        assert "2/3 tasks" in out
        assert view.completed == 2

    def test_run_top_follow_plain_until_finish(self, tmp_path, capsys):
        path = tmp_path / "flight.jsonl"
        events = _demo_events() + [
            {"seq": 10, "t": 2.2, "kind": "campaign_finished"},
        ]
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        view = run_top(path, follow=True, interval=0.01)
        assert view.finished == "campaign_finished"
        assert "campaign_finished" in capsys.readouterr().out


class TestCli:
    def test_dist_top_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "flight.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in _demo_events()) + "\n")
        assert main(["dist", "top", str(path)]) == 0
        assert "2/3 tasks" in capsys.readouterr().out

    def test_dist_top_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["dist", "top", str(tmp_path / "nope.jsonl")]) == 2
        assert "no flight recording" in capsys.readouterr().err

    def test_experiments_flight_flag_passes_through(self, monkeypatch, tmp_path):
        from repro import cli as cli_module

        captured = {}

        def fake_run_all(**kwargs):
            captured.update(kwargs)

            class _Report:
                ok = True
                results = {}

                def summary_lines(self):
                    return []

            return _Report()

        monkeypatch.setattr("repro.experiments.runner.run_all", fake_run_all)
        monkeypatch.chdir(tmp_path)
        flight = tmp_path / "f.jsonl"
        assert cli_module.main([
            "experiments", "--quick", "--nodes", "sim:2",
            "--profile", "fig11", "--flight", str(flight),
        ]) == 0
        assert captured["flight_path"] == str(flight)
        assert captured["nodes"] == "sim:2"
        assert captured["only"] == "fig11"
