"""Simulated multi-node cluster: real protocol, injectable failures.

Real multi-node CI is unavailable (and nondeterministic anyway), so the
robustness claims of :mod:`repro.dist` are made testable on a single
CPU by running N *simulated nodes* -- each a thread executing the
production :class:`~repro.dist.worker.WorkerLoop` verbatim -- behind
the in-memory :class:`~repro.dist.transport.SimChannel` fabric.  The
only difference from a socket deployment is the transport object; the
lease, heartbeat, reassignment and retry machinery exercised is the
real thing.

Failures are declared ahead of time as a :class:`FaultScript`: a list
of :class:`FaultEvent` entries saying *which node* fails *how* (kill,
hang, stall, slow, partition) at *which task* it starts or finishes.
:meth:`FaultScript.random` derives a script from a seed under the
:mod:`repro.qa` discipline, so the nightly chaos job explores a fresh
scenario per ``--qa-seed`` while any failure reproduces exactly from
the printed seed.  Ambient :class:`~repro.resilience.faults.FaultPlan`
site faults also fire inside simulated nodes (the worker executes
tasks through :func:`repro.dist.protocol.execute_task`, which calls
``reach``).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.dist.transport import sim_pair
from repro.dist.worker import NodeHang, NodeKilled, NodeStall, WorkerLoop
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.resilience.faults import _derive_rng_seed

__all__ = ["FaultEvent", "FaultScript", "SimCluster", "SimNode"]

_LOGGER = obs_log.get_logger("dist.sim")

_KINDS = ("kill", "hang", "stall", "slow", "partition")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled node failure.

    ``at_task`` counts task assignments *on that node* (1-based);
    ``phase`` is ``"start"`` (fires after the assignment arrives,
    before any work) or ``"finish"`` (fires after the attempt computed,
    before the result is sent -- the nastiest kill point, since the
    work is done but the coordinator will never hear about it).
    ``duration_s`` parameterizes hang/stall windows, slow-link latency
    and partition length.
    """

    node: str
    kind: str  # kill | hang | stall | slow | partition
    at_task: int = 1
    phase: str = "start"
    duration_s: float = 60.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {_KINDS}")
        if self.phase not in ("start", "finish"):
            raise ValueError(f"phase must be start or finish, got {self.phase!r}")
        if self.at_task < 1:
            raise ValueError(f"at_task is 1-based, got {self.at_task}")


class FaultScript:
    """An ordered set of :class:`FaultEvent` entries for one campaign."""

    def __init__(self, events=()):
        self.events = [
            event if isinstance(event, FaultEvent) else FaultEvent(**event)
            for event in events
        ]
        self.fired = []

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    @classmethod
    def random(cls, seed, nodes, n_events=1, max_task=4,
               kinds=("kill", "hang", "stall", "partition"),
               duration_s=60.0, spare=None):
        """A seeded scenario: ``n_events`` failures over ``nodes``.

        At most one event per node (a node fails once), and with
        ``spare`` at least that many nodes are left untouched so the
        campaign can always finish on survivors.  The draw is a pure
        function of ``seed`` (sha256-mixed, same discipline as the QA
        plugin's ``seeded_rng``).
        """
        nodes = [str(n) for n in nodes]
        if spare is None:
            spare = 1 if len(nodes) > 1 else 0
        budget = max(len(nodes) - spare, 0)
        n_events = min(int(n_events), budget)
        rng = np.random.default_rng(_derive_rng_seed(seed, "faultscript"))
        victims = rng.choice(len(nodes), size=n_events, replace=False)
        events = [
            FaultEvent(
                node=nodes[int(victim)],
                kind=str(rng.choice(list(kinds))),
                at_task=int(rng.integers(1, max_task + 1)),
                phase=str(rng.choice(["start", "finish"])),
                duration_s=float(duration_s),
            )
            for victim in victims
        ]
        return cls(events)

    def for_node(self, node):
        return [event for event in self.events if event.node == str(node)]


class SimNode:
    """One simulated node: a production WorkerLoop on a thread."""

    def __init__(self, name, script, abort, latency_s=0.0):
        self.name = str(name)
        self.coordinator_channel, node_channel = sim_pair(
            name=self.name, latency_s=latency_s
        )
        self._events = {}
        for event in script.for_node(self.name):
            self._events.setdefault((event.at_task, event.phase), event)
        self._script = script
        self.loop = WorkerLoop(
            node_channel, name=self.name, fault_hook=self._fault_hook, abort=abort
        )
        self.thread = threading.Thread(
            target=self.loop.run, name=f"sim-node-{self.name}", daemon=True
        )
        self.outcome = None

    def start(self):
        self.thread.start()

    def _fault_hook(self, phase, task_index):
        # WorkerLoop phases are "task_start"/"task_finish"; events use
        # the short form.
        event = self._events.pop((task_index, phase.removeprefix("task_")), None)
        if event is None:
            return
        self._script.fired.append(event)
        _LOGGER.info(
            "injecting %s on node %s at task %d (%s)",
            event.kind, self.name, task_index, phase,
            extra={"node": self.name, "kind": event.kind,
                   "task_index": task_index, "phase": phase},
        )
        obs_flight.recorder().record(
            "fault_injected", node=self.name, fault=event.kind,
            task_index=task_index, phase=phase,
        )
        if event.kind == "kill":
            raise NodeKilled(f"node {self.name} killed at task {task_index}")
        if event.kind == "hang":
            raise NodeHang(event.duration_s)
        if event.kind == "stall":
            raise NodeStall(event.duration_s)
        if event.kind == "slow":
            self.coordinator_channel.link.set_latency(event.duration_s)
        elif event.kind == "partition":
            self.coordinator_channel.link.partition(event.duration_s)


class SimCluster:
    """N simulated nodes behind one coordinator-facing endpoint dict.

    Usage::

        script = FaultScript.random(seed=7, nodes=["n0", "n1", "n2"])
        with SimCluster(3, script=script) as cluster:
            report = run_distributed(tasks, cluster.endpoints(), ...)

    ``endpoints()`` returns ``{name: Channel}``, the exact shape
    :func:`repro.dist.coordinator.run_distributed` takes for socket
    deployments -- the coordinator cannot tell the difference.
    """

    def __init__(self, nodes=2, *, script=None, latency_s=0.0):
        if isinstance(nodes, int):
            names = [f"n{i}" for i in range(nodes)]
        else:
            names = [str(n) for n in nodes]
        if not names:
            raise ValueError("a cluster needs at least one node")
        self.script = script if script is not None else FaultScript()
        self.abort = threading.Event()
        self.nodes = [
            SimNode(name, self.script, self.abort, latency_s=latency_s)
            for name in names
        ]

    def start(self):
        for node in self.nodes:
            node.start()
        return self

    def endpoints(self):
        return {node.name: node.coordinator_channel for node in self.nodes}

    def stop(self, timeout_s=5.0):
        """Release every node: abort hangs/stalls, close links, join."""
        self.abort.set()
        for node in self.nodes:
            node.coordinator_channel.link.kill()
        for node in self.nodes:
            node.thread.join(timeout_s)
        stuck = [n.name for n in self.nodes if n.thread.is_alive()]
        if stuck:  # pragma: no cover - teardown diagnostics only
            _LOGGER.warning("sim nodes still alive at teardown: %s", stuck)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False
