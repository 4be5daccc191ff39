"""Tier-1 tests for the distributed campaign layer.

Covers the protocol (task model, seeds), the transports (address
parsing, the simulated fabric's latency/partition/death semantics, a
real unix-socket worker), the coordinator's
robustness paths (retry, lease expiry and reassignment, stalled-worker
timeout, local fallback, checkpoint/resume) and the campaign/CLI
wiring.  The multi-scenario digest-identity wall lives in
``test_dist_chaos.py``; scheduler benchmarks in
``benchmarks/test_dist.py``.
"""

import contextlib
import logging
import threading
import time

import numpy as np
import pytest

from repro.core.daviesharte import DaviesHarteGenerator
from repro.dist import (
    ChannelClosed,
    DistError,
    FaultEvent,
    FaultScript,
    SimCluster,
    TaskSpec,
    WorkerLoop,
    execute_task,
    fgn_tasks,
    parse_nodes,
    run_distributed,
)
from repro.dist import protocol, transport
from repro.dist.transport import sim_pair
from repro.par.pool import derive_task_seed
from repro.resilience.faults import FaultPlan, TransientFault
from repro.resilience.runner import ExperimentSpec, run_campaign

class TestProtocol:
    def test_task_spec_wire_round_trip(self):
        task = TaskSpec("t1", "sleep", {"duration_s": 0.0, "value": 3})
        assert TaskSpec.from_wire(task.to_wire()) == task

    def test_task_spec_validation(self):
        with pytest.raises(ValueError, match="task_id"):
            TaskSpec("", "sleep")
        with pytest.raises(TypeError, match="params"):
            TaskSpec("t", "sleep", params=[1])

    def test_task_seed_matches_supervisor_discipline(self):
        # The coordinator seeds attempt 0 of "fgn003" exactly as the local
        # supervisor seeds the same id: the sha256 of "7:fgn003:0".
        task = TaskSpec("fgn003", "fgn", {"n": 64, "hurst": 0.8})
        with SimCluster(1) as cluster:
            report = run_distributed([task], cluster.endpoints(), base_seed=7)
        local = run_campaign([ExperimentSpec("fgn003", lambda seed: seed)],
                             base_seed=7)
        assert local.results["fgn003"] == 13053162268361128549
        np.testing.assert_array_equal(
            report.results["fgn003"],
            execute_task(task, seed=local.results["fgn003"]),
        )

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_task(TaskSpec("t", "no-such-kind"), seed=0)

    def test_execute_fires_reach_site(self):
        plan = FaultPlan().fail_at("dist.task:sleep", call=1, exc=TransientFault)
        with plan.active():
            with pytest.raises(TransientFault):
                execute_task(TaskSpec("t", "sleep", {"duration_s": 0.0}), seed=0)

    def test_davies_harte_task_on_two_sim_nodes(self):
        # The default backend is spelled as in repro.core.fgn's table.
        task = TaskSpec("dh", "fgn", {"n": 256, "hurst": 0.8, "backend": "davies-harte"})
        with SimCluster(2) as cluster:
            report = run_distributed([task], cluster.endpoints(), base_seed=7)
        task_seed = run_campaign([ExperimentSpec("dh", lambda seed: seed)],
                                 base_seed=7).results["dh"]
        expected = DaviesHarteGenerator(0.8).generate(
            256, rng=np.random.default_rng(task_seed))
        assert report.results["dh"].tobytes() == expected.tobytes()

    def test_fgn_task_is_seed_deterministic(self):
        task = TaskSpec("f", "fgn", {"n": 256, "hurst": 0.8})
        a = execute_task(task, seed=derive_task_seed(0, 0, label="f"))
        b = execute_task(task, seed=derive_task_seed(0, 0, label="f"))
        c = execute_task(task, seed=derive_task_seed(0, 1, label="f"))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


@contextlib.contextmanager
def _serving():
    """An event set once a worker logs that its listener is up."""
    ready = threading.Event()

    class _Serving(logging.Handler):
        def emit(self, record):
            if "serving on" in record.getMessage():
                ready.set()

    logger, handler = logging.getLogger("repro.dist.worker"), _Serving()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield ready
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestTransport:
    def test_parse_address(self):
        assert transport.parse_address("127.0.0.1:9001") == ("127.0.0.1", 9001)
        assert transport.parse_address("unix:/tmp/x.sock") == "/tmp/x.sock"
        for bad in ("", "nohost", "host:", "host:abc", "unix:"):
            with pytest.raises(ValueError):
                transport.parse_address(bad)

    def test_sim_pair_delivers_both_ways(self):
        a, b = sim_pair("t")
        a.send({"type": "ping"})
        assert b.poll(0.5) and b.recv() == {"type": "ping"}
        b.send({"type": "pong"})
        assert a.poll(0.5) and a.recv() == {"type": "pong"}
        assert not a.poll(0.0)

    def test_partition_drops_messages_silently(self):
        a, b = sim_pair("t")
        a.link.partition(60.0)
        a.send({"type": "lost"})  # no error, no delivery
        assert not b.poll(0.05)

    def test_killed_link_raises_channel_closed(self):
        a, b = sim_pair("t")
        a.link.kill()
        with pytest.raises(ChannelClosed):
            a.send({"type": "x"})
        assert b.poll(0.05)  # dead link is "readable" so recv can raise
        with pytest.raises(ChannelClosed):
            b.recv()

    def test_latency_delays_delivery(self):
        a, b = sim_pair("t", latency_s=0.15)
        a.send({"type": "slow"})
        assert not b.poll(0.0)
        assert b.poll(1.0)
        assert b.recv() == {"type": "slow"}

    def test_unix_socket_serve_probe_detach(self, tmp_path):
        from repro.dist.worker import serve

        address = f"unix:{tmp_path / 'w.sock'}"
        outcome = {}

        def _serve():
            outcome["result"] = serve(address, name="w-test", once=True)

        with _serving() as ready:
            thread = threading.Thread(target=_serve, daemon=True)
            thread.start()
            assert ready.wait(5.0)
        ok, rtt, detail = transport.probe(address)
        assert ok and rtt is not None and detail == "w-test"
        thread.join(5.0)
        assert outcome.get("result") == "detach"

    def test_probe_unreachable(self, tmp_path):
        ok, rtt, detail = transport.probe(
            f"unix:{tmp_path / 'nothing.sock'}", timeout_s=0.5
        )
        assert not ok and rtt is None and detail


class TestWorkerLoop:
    def test_hello_task_result_shutdown(self):
        coord, node = sim_pair("t")
        loop = WorkerLoop(node, name="w0")
        thread = threading.Thread(target=lambda: loop.run(), daemon=True)
        thread.start()
        assert coord.poll(2.0)
        hello = coord.recv()
        assert hello["type"] == "hello" and hello["node"] == "w0"
        task = TaskSpec("t1", "sleep", {"duration_s": 0.0, "value": 9})
        coord.send(protocol.make_task_message(task, seed=1, attempt=0, lease_s=1.0))
        message = coord.recv() if coord.poll(2.0) else None
        while message is not None and message["type"] == "heartbeat":
            message = coord.recv() if coord.poll(2.0) else None
        assert message is not None and message["ok"] and message["payload"] == 9
        coord.send({"type": "shutdown"})
        thread.join(2.0)
        assert not thread.is_alive()

    def test_heartbeats_flow_during_long_task(self):
        coord, node = sim_pair("t")
        loop = WorkerLoop(node, name="w0")
        thread = threading.Thread(target=lambda: loop.run(), daemon=True)
        thread.start()
        coord.recv()  # hello
        task = TaskSpec("slow", "sleep", {"duration_s": 0.4, "value": 1})
        coord.send(protocol.make_task_message(task, seed=1, attempt=0, lease_s=0.2))
        beats = 0
        while coord.poll(2.0):
            message = coord.recv()
            if message["type"] == "heartbeat":
                beats += 1
                assert message["task_id"] == "slow"
            elif message["type"] == "result":
                break
        assert beats >= 2
        coord.send({"type": "shutdown"})
        thread.join(2.0)

    def test_task_error_reported_with_transient_flag(self):
        coord, node = sim_pair("t")
        loop = WorkerLoop(node, name="w0")
        thread = threading.Thread(target=lambda: loop.run(), daemon=True)
        thread.start()
        coord.recv()  # hello
        task = TaskSpec("bad", "no-such-kind", {})
        coord.send(protocol.make_task_message(task, seed=1, attempt=0, lease_s=1.0))
        assert coord.poll(2.0)
        message = coord.recv()
        assert not message["ok"]
        assert message["error"]["error_type"] == "ValueError"
        assert not message["error"]["transient"]
        coord.send({"type": "shutdown"})
        thread.join(2.0)


def _sleep_tasks(n, duration_s=0.0):
    return [
        TaskSpec(f"t{i}", "sleep", {"duration_s": duration_s, "value": i})
        for i in range(n)
    ]


class TestCoordinator:
    def test_results_in_task_order_any_node_count(self):
        tasks = _sleep_tasks(7)
        expected = {f"t{i}": i for i in range(7)}
        for nodes in (1, 3):
            with SimCluster(nodes) as cluster:
                report = run_distributed(tasks, cluster.endpoints(), lease_s=2.0)
            assert report.ok
            assert report.results == expected
            assert [r.experiment_id for r in report.records] == [t.task_id for t in tasks]

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate task id"):
            run_distributed([TaskSpec("t", "sleep"), TaskSpec("t", "sleep")], {})

    def test_transient_failure_retries_with_rotated_seed(self):
        plan = FaultPlan().fail_at("dist.task:fgn", call=1, exc=TransientFault)
        tasks = fgn_tasks(3, 256)
        with plan.active():
            with SimCluster(1) as cluster:
                report = run_distributed(
                    tasks, cluster.endpoints(), lease_s=2.0, max_retries=1,
                    base_seed=3,
                )
        assert report.ok
        assert len(report.attempt_failures) == 1
        failed = report.attempt_failures[0]
        assert failed.transient and failed.attempt == 0
        record = next(r for r in report.records if r.experiment_id == failed.experiment_id)
        assert record.attempts == 2  # second attempt, rotated seed, succeeded

    def test_terminal_failure_recorded_campaign_continues(self):
        tasks = _sleep_tasks(3) + [TaskSpec("bad", "no-such-kind")]
        with SimCluster(2) as cluster:
            report = run_distributed(tasks, cluster.endpoints(), lease_s=2.0,
                                     max_retries=2)
        assert not report.ok
        assert [f.experiment_id for f in report.failures] == ["bad"]
        assert len(report.results) == 3  # the healthy tasks all completed
        assert any("FAILED: bad" in line for line in report.summary_lines())

    def test_killed_node_work_reassigned_same_seed(self):
        tasks = fgn_tasks(6, 512)
        with SimCluster(1) as cluster:
            baseline = run_distributed(tasks, cluster.endpoints(), lease_s=2.0,
                                       base_seed=7)
        script = FaultScript([FaultEvent("n0", "kill", at_task=1, phase="finish")])
        events = []
        with SimCluster(3, script=script) as cluster:
            report = run_distributed(
                tasks, cluster.endpoints(), lease_s=0.3, base_seed=7,
                on_event=lambda kind, task_id, detail: events.append(kind),
            )
        assert [e.kind for e in script.fired] == ["kill"]
        assert report.ok
        assert report.node_states["n0"] == "dead"
        assert sum(r.reassignments for r in report.records) == 1
        assert "node_lost" in events and "reassign" in events
        # The rerun kept the attempt number, so results are bit-identical.
        for task in tasks:
            np.testing.assert_array_equal(
                baseline.results[task.task_id], report.results[task.task_id]
            )
        assert all(f"t{r.attempts}" and r.attempts == 1 for r in report.records)

    def test_stalled_worker_caught_by_stall_cap(self):
        # A stall heartbeats forever without delivering; only the
        # timeout_s + lease_s stall cap can catch it.
        script = FaultScript([
            FaultEvent("n0", "stall", at_task=1, phase="finish", duration_s=60.0)
        ])
        tasks = _sleep_tasks(3)
        with SimCluster(2, script=script) as cluster:
            report = run_distributed(tasks, cluster.endpoints(), lease_s=0.2,
                                     timeout_s=0.4)
        assert report.ok
        assert report.node_states["n0"] == "dead"
        assert report.node_states["n1"] == "alive"

    def test_all_nodes_dead_without_fallback_raises(self):
        script = FaultScript([FaultEvent("n0", "kill", at_task=1)])
        with SimCluster(1, script=script) as cluster:
            with pytest.raises(DistError, match="worker node"):
                run_distributed(_sleep_tasks(4), cluster.endpoints(),
                                lease_s=0.2, fallback_local=False)

    def test_all_nodes_dead_degrades_to_local(self, tmp_path):
        # The same transient fault (first fgn execution) on a healthy
        # node and in the local fallback: the fallback settles it with
        # the local supervisor's policy, continuing the attempt count.
        from repro.obs import flight as obs_flight

        tasks = fgn_tasks(4, 256)
        canonical = {}
        try:
            plan = FaultPlan().fail_at("dist.task:fgn", call=1, exc=TransientFault)
            with plan.active(), SimCluster(1) as cluster:
                baseline = run_distributed(
                    tasks, cluster.endpoints(), lease_s=2.0, base_seed=5,
                    flight_path=str(tmp_path / "remote.jsonl"),
                )
            canonical["remote"] = obs_flight.recorder().canonical_lines()
            plan = FaultPlan().fail_at("dist.task:fgn", call=1, exc=TransientFault)
            script = FaultScript([FaultEvent("n0", "kill", at_task=1)])
            with plan.active(), SimCluster(1, script=script) as cluster:
                report = run_distributed(
                    tasks, cluster.endpoints(), lease_s=0.2, base_seed=5,
                    flight_path=str(tmp_path / "fallback.jsonl"),
                )
            canonical["fallback"] = obs_flight.recorder().canonical_lines()
        finally:
            obs_flight.configure()  # restore the gated default recorder
        assert report.ok and report.degraded_to_local
        assert [f.node for f in baseline.attempt_failures] == ["n0"]
        assert [(f.node, f.experiment_id, f.attempt, f.transient)
                for f in report.attempt_failures] == [("local", "fgn000", 0, True)]
        assert [r.node for r in report.records] == ["local"] * len(tasks)
        for task in tasks:
            np.testing.assert_array_equal(
                baseline.results[task.task_id], report.results[task.task_id]
            )
        assert canonical["fallback"] == canonical["remote"]
        assert len(canonical["fallback"]) == len(tasks)
        assert any("degraded to local" in line for line in report.summary_lines())

    def test_checkpoint_resume_skips_verified_tasks(self, tmp_path):
        tasks = fgn_tasks(5, 256)
        ckpt = tmp_path / "ckpt"
        with SimCluster(2) as cluster:
            run_distributed(tasks[:3], cluster.endpoints(), lease_s=2.0,
                            base_seed=5, checkpoint_dir=ckpt, manifest={"v": 1})
        with SimCluster(2) as cluster:
            report = run_distributed(tasks, cluster.endpoints(), lease_s=2.0,
                                     base_seed=5, checkpoint_dir=ckpt,
                                     manifest={"v": 1})
        assert report.ok
        assert sorted(report.resumed) == ["fgn000", "fgn001", "fgn002"]
        statuses = {r.experiment_id: r.status for r in report.records}
        assert statuses["fgn000"] == "resumed" and statuses["fgn004"] == "completed"

    def test_resume_refuses_drifted_manifest(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        with SimCluster(1) as cluster:
            run_distributed(_sleep_tasks(2), cluster.endpoints(), lease_s=2.0,
                            checkpoint_dir=ckpt, manifest={"v": 1})
        with SimCluster(1) as cluster:
            with pytest.raises(ValueError, match="different campaign"):
                run_distributed(_sleep_tasks(2), cluster.endpoints(),
                                lease_s=2.0, checkpoint_dir=ckpt,
                                manifest={"v": 2})

    def test_lease_must_be_positive(self):
        with pytest.raises(ValueError, match="lease_s"):
            run_distributed(_sleep_tasks(1), {}, lease_s=0.0)


class TestFaultScript:
    def test_random_is_seed_deterministic(self):
        nodes = [f"n{i}" for i in range(5)]
        a = FaultScript.random(3, nodes, n_events=3)
        b = FaultScript.random(3, nodes, n_events=3)
        assert [(e.node, e.kind, e.at_task, e.phase) for e in a.events] == [
            (e.node, e.kind, e.at_task, e.phase) for e in b.events
        ]
        c = FaultScript.random(4, nodes, n_events=3)
        assert [(e.node, e.kind) for e in a.events] != [
            (e.node, e.kind) for e in c.events
        ] or [e.at_task for e in a.events] != [e.at_task for e in c.events]

    def test_random_spares_survivors(self):
        nodes = [f"n{i}" for i in range(4)]
        for seed in range(8):
            script = FaultScript.random(seed, nodes, n_events=10, spare=2)
            assert len({e.node for e in script.events}) <= 2

    def test_single_node_cluster_can_be_fully_faulted(self):
        script = FaultScript.random(0, ["n0"], n_events=1)
        assert len(script.events) == 1

    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent("n0", "meteor")
        with pytest.raises(ValueError, match="phase"):
            FaultEvent("n0", "kill", phase="middle")
        with pytest.raises(ValueError, match="1-based"):
            FaultEvent("n0", "kill", at_task=0)


class TestCampaign:
    def test_parse_nodes(self):
        assert parse_nodes("sim:3") == ("sim", 3)
        assert parse_nodes("sim") == ("sim", 2)
        assert parse_nodes("a:1,b:2") == ("addresses", ["a:1", "b:2"])
        assert parse_nodes(["unix:/tmp/x"]) == ("addresses", ["unix:/tmp/x"])
        for bad in ("", "sim:0", "sim:x", ",", "host:"):
            with pytest.raises(ValueError):
                parse_nodes(bad)

    def test_fgn_tasks_shape(self):
        tasks = fgn_tasks(3, 1024, hurst=0.75, backend="paxson")
        assert [t.task_id for t in tasks] == ["fgn000", "fgn001", "fgn002"]
        assert all(t.kind == "fgn" and t.params["hurst"] == 0.75 for t in tasks)
        with pytest.raises(ValueError, match="at least one"):
            fgn_tasks(0, 8)

    @pytest.mark.parametrize("kwargs,message", [
        ({"backend": "daviesharte"}, "unknown fGn backend 'daviesharte'"),
        ({"hurst": 1.2}, "hurst must lie in the open interval"),
    ])
    def test_fgn_tasks_refuse_bad_params_before_sending(self, kwargs, message):
        with pytest.raises(ValueError, match=message) as info:
            fgn_tasks(1, 64, **kwargs)
        assert "\n" not in str(info.value)

    def test_experiment_tasks_validates_only(self):
        from repro.dist.campaign import experiment_tasks
        from repro.experiments.data import reference_trace
        from repro.experiments.runner import experiment_specs, select_experiments

        specs = experiment_specs(reference_trace(n_frames=2_000), quick=True)
        tasks = experiment_tasks(select_experiments(specs, "fig11"), quick=True,
                                 sim_frames=None, trace_frames=2_000)
        assert [t.task_id for t in tasks] == ["fig11"]
        assert tasks[0].params == {"experiment_id": "fig11", "quick": True,
                                   "sim_frames": None, "trace_frames": 2_000}
        with pytest.raises(ValueError, match="unknown experiment"):
            select_experiments(specs, "fig99")

    def test_run_all_nodes_rejects_custom_trace(self):
        from repro.experiments.runner import run_all
        from repro.video.starwars import synthesize_starwars_trace

        trace = synthesize_starwars_trace(n_frames=500, seed=0, with_slices=False)
        with pytest.raises(ValueError, match="reference"):
            run_all(trace=trace, nodes="sim:2")


class TestOneSupervisor:
    """``workers=2`` and ``nodes="sim:2"`` differ only in who executes an
    attempt: same digests, same canonical flight lines, and one
    checkpoint manifest, so either transport resumes the other's run."""

    ONLY = ("table1", "fig11")

    @staticmethod
    def _digest(results):
        import json

        from repro.qa.golden import summarize

        return json.dumps(summarize(results), sort_keys=True)

    def _run(self, flight_path, **kwargs):
        from repro.experiments.runner import run_all
        from repro.obs import flight as obs_flight

        try:
            report = run_all(quick=True, only=self.ONLY, report=True,
                             flight_path=str(flight_path), **kwargs)
            lines = obs_flight.recorder().canonical_lines()
        finally:
            obs_flight.configure()  # restore the gated default recorder
        return report, ("\n".join(lines) + "\n").encode()

    def test_transports_agree_and_resume_each_other(self, tmp_path):
        local, local_lines = self._run(
            tmp_path / "local.jsonl", workers=2, checkpoint_dir=tmp_path / "ckpt-w2",
        )
        dist, dist_lines = self._run(
            tmp_path / "dist.jsonl", nodes="sim:2", checkpoint_dir=tmp_path / "ckpt-sim2",
        )
        assert local.ok and dist.ok
        assert self._digest(local.results) == self._digest(dist.results)
        assert local_lines == dist_lines
        assert len(local_lines.splitlines()) == len(self.ONLY)
        # Each checkpoint directory resumes under the other transport.
        for written, other in (("ckpt-w2", {"nodes": "sim:2"}),
                               ("ckpt-sim2", {"workers": 2})):
            events = []
            report, _ = self._run(
                tmp_path / f"resume-{written}.jsonl", checkpoint_dir=tmp_path / written,
                resume=True, on_event=lambda kind, eid, detail: events.append(kind),
                **other,
            )
            assert report.ok
            assert sorted(report.resumed) == sorted(self.ONLY)
            assert events == ["resumed"] * len(self.ONLY)  # nothing re-ran
            assert self._digest(report.results) == self._digest(local.results)

    def test_one_fault_plan_gives_one_attempt_history(self):
        """An ``experiment:<id>`` fault fires wherever the attempt runs.
        ``sleep`` waits out in-process backoffs only: on nodes the
        coordinator schedules the backoff on its own clock and never
        polls through ``sleep``, so a no-wait ``sleep`` cannot turn its
        loop into a busy spin."""
        from repro.experiments.runner import run_all

        histories, waits = {}, {}
        for name, transport in (("local", {"workers": 1}),
                                ("nodes", {"nodes": "sim:2"})):
            plan = FaultPlan().fail_at("experiment:table1", call=1, exc=TransientFault)
            waits[name] = []
            with plan.active():
                report = run_all(quick=True, only="table1", report=True,
                                 max_retries=1, sleep=waits[name].append,
                                 **transport)
            assert report.ok
            assert [f.site for f in plan.injected] == ["experiment:table1"]
            histories[name] = (
                [(f.experiment_id, f.attempt, f.seed, f.error_type, f.transient)
                 for f in report.attempt_failures],
                [(r.experiment_id, r.status, r.attempts, r.seed)
                 for r in report.records],
            )
        assert histories["local"] == histories["nodes"]
        assert histories["nodes"][1] == [
            ("table1", "completed", 2, derive_task_seed(0, 1, label="table1"))]
        assert waits == {"local": [0.05], "nodes": []}

    def test_terminal_failure_raises_without_report(self):
        from repro.experiments.runner import run_all

        for transport, exc in (({"workers": 1}, ValueError),
                               ({"nodes": "sim:1"}, DistError)):
            plan = FaultPlan().fail_at("experiment:table1", call=1, exc=ValueError)
            with plan.active(), pytest.raises(exc, match="table1"):
                run_all(quick=True, only="table1", **transport)


class TestCli:
    def test_doctor_nodes_unreachable_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["doctor", "--nodes", f"unix:{tmp_path / 'no.sock'}",
                       "--probe-timeout-s", "0.5"])
        assert status == 2
        assert "UNREACHABLE" in capsys.readouterr().err

    def test_doctor_nodes_reachable_exits_0(self, tmp_path, capsys):
        from repro.cli import main
        from repro.dist.worker import serve

        address = f"unix:{tmp_path / 'w.sock'}"
        with _serving() as ready:
            thread = threading.Thread(
                target=lambda: serve(address, name="w-doc", once=True), daemon=True,
            )
            thread.start()
            assert ready.wait(5.0)
        status = main(["doctor", "--nodes", address])
        thread.join(5.0)
        out = capsys.readouterr().out
        assert status == 0
        assert "cluster ok" in out and "w-doc" in out

    def test_doctor_rejects_sim_nodes(self, capsys):
        from repro.cli import main

        assert main(["doctor", "--nodes", "sim:3"]) == 2
        assert "simulated" in capsys.readouterr().err

    def test_doctor_without_trace_or_nodes_exits_2(self, capsys):
        from repro.cli import main

        assert main(["doctor"]) == 2
        assert "trace file and/or --nodes" in capsys.readouterr().err

    def test_dist_serve_bad_address_exits_2(self, capsys):
        from repro.cli import main

        assert main(["dist", "serve", "not-an-address"]) == 2
        assert "error:" in capsys.readouterr().err
