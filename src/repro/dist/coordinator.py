"""Fault-tolerant campaign coordinator: leases, heartbeats, reassignment.

:func:`run_distributed` drives an ordered list of
:class:`~repro.dist.protocol.TaskSpec` across named worker endpoints
(socket channels from ``repro dist serve`` or a
:class:`~repro.dist.simcluster.SimCluster`) and returns the same
:class:`~repro.resilience.runner.CampaignReport` the local supervisor
does.  The robustness contract, in decreasing order of how often it
should matter:

- **Leases + heartbeats.**  Every assignment carries a lease of
  ``lease_s`` seconds; the worker heartbeats at a quarter of that, and
  each heartbeat renews the lease.  A lease that expires means the
  node is gone (SIGKILL, hang, partition) -- the node is declared dead
  and its task goes back to the head of the queue *with the same
  attempt number*, so the rerun on a surviving node draws the same
  seed and produces bit-identical results.  With ``timeout_s`` the
  worker gives up on an attempt after that many seconds and reports
  a transient ``TimeoutError``; a node still holding the task
  ``timeout_s + lease_s`` after assignment (heartbeating but never
  delivering: a stalled worker) is declared lost.
- **Bounded retry.**  A task that *fails* (the worker ran it and it
  raised) is settled by the local supervisor's policy,
  :func:`~repro.resilience.runner.attempt_failed`: transient errors
  retry up to ``max_retries`` times with capped exponential backoff,
  and each retry rotates the seed via the same sha256 derivation.
- **Work conservation.**  A deterministic result is accepted from any
  node that finishes it first; late duplicates (a partitioned node
  healing after its work was reassigned) are counted, not trusted
  twice.
- **Graceful degradation.**  When every remote node is dead and work
  remains, the coordinator finishes the campaign locally and serially
  through the local supervisor's executor, each task continuing at
  its current attempt -- a distributed campaign can end slow, but not
  dead.
- **Checkpoint/resume.**  With ``checkpoint_dir`` every completed task
  is persisted through the :class:`~repro.resilience.runner.CheckpointStore`
  (atomic, digest-verified on load), so a killed *coordinator* resumes
  digest-identically too -- same files, same tolerances as single-node
  campaigns.
"""

from __future__ import annotations

import dataclasses
import time

from repro.dist import protocol
from repro.dist.transport import ChannelClosed
from repro.obs import log as obs_log
from repro.obs import metrics, trace
from repro.par.pool import derive_task_seed
from repro.resilience.runner import (
    CampaignReport,
    ExperimentRecord,
    ExperimentSpec,
    _merge,
    _resumed,
    _run_spec,
    _SpecOutcome,
    attempt_failed,
    campaign_flight,
    open_store,
)

__all__ = ["DEFAULT_LEASE_S", "DistError", "run_distributed"]

DEFAULT_LEASE_S = 10.0
"""Per-task lease when ``lease_s`` is not given."""

POLL_S = 0.002
"""Coordinator idle sleep between channel sweeps."""

_LOGGER = obs_log.get_logger("dist.coord")

_TASKS = {
    outcome: metrics.registry().counter(
        "repro_dist_tasks_total",
        help="Distributed-task outcomes seen by the coordinator",
        unit="tasks", labels={"outcome": outcome},
    )
    for outcome in ("completed", "failed", "retried", "reassigned",
                    "resumed", "duplicate", "local")
}

_LEASE_EXPIRIES = metrics.registry().counter(
    "repro_dist_lease_expiries_total",
    help="Leases that expired without a heartbeat (node presumed lost)",
    unit="leases",
)

_FALLBACKS = metrics.registry().counter(
    "repro_dist_local_fallback_total",
    help="Campaigns that degraded to local serial execution",
    unit="campaigns",
)

_NODES = {
    state: metrics.registry().gauge(
        "repro_dist_nodes",
        help="Worker nodes known to the coordinator, by state",
        unit="nodes", labels={"state": state},
    )
    for state in ("alive", "dead")
}


def _node_tasks_counter(node):
    return metrics.registry().counter(
        "repro_dist_node_tasks_total",
        help="Tasks completed per worker node",
        unit="tasks", labels={"node": str(node)},
    )


class DistError(RuntimeError):
    """The campaign cannot make progress (and local fallback is off), or
    ``run_all(nodes=...)`` without ``report=True`` saw a terminal failure."""


@dataclasses.dataclass
class _Node:
    name: str
    channel: object
    state: str = "alive"  # alive | dead
    current: str | None = None  # task_id being worked, if any


@dataclasses.dataclass
class _TaskState:
    spec: object
    outcome: object  # the local supervisor's _SpecOutcome for this task
    attempt: int = 0
    reassignments: int = 0
    ready_at: float = 0.0
    node: str | None = None  # assignee
    deadline: float = 0.0
    started_at: float = 0.0
    wall_time: float = 0.0

    @property
    def done(self):
        return self.outcome.record is not None


def _normalize_tasks(tasks):
    out = []
    seen = set()
    for task in tasks:
        if not isinstance(task, protocol.TaskSpec):
            task = protocol.TaskSpec(*task) if isinstance(task, tuple) else (
                protocol.TaskSpec.from_wire(task)
            )
        if task.task_id in seen:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        seen.add(task.task_id)
        out.append(task)
    return out


def run_distributed(tasks, endpoints, *, base_seed=0, max_retries=1,
                    timeout_s=None, lease_s=None, checkpoint_dir=None,
                    resume=True, manifest=None, fallback_local=True,
                    sleep=time.sleep, on_event=None, flight_path=None):
    """Drive ``tasks`` over ``endpoints`` (``{node_name: Channel}``).

    Returns a :class:`~repro.resilience.runner.CampaignReport`; results,
    records, failures and checkpoint digests are functions of
    ``(tasks, base_seed)`` alone -- not of node count, scheduling, kills
    or reassignments -- provided each task is deterministic given its
    seed.  Keywords shared with
    :func:`~repro.resilience.runner.run_campaign` mean the same here;
    ``lease_s`` defaults to :data:`DEFAULT_LEASE_S`.  ``sleep`` waits out
    the backoff of attempts run in-process (the local fallback); a node
    retry's backoff is scheduled on the coordinator's clock instead, so
    one backing-off task never blocks the other nodes.  ``on_event`` also
    sees ``assign``, ``reassign``, ``node_lost``, ``duplicate`` and
    ``local_fallback`` (with ``task_id`` ``None`` for node-level events).
    """
    tasks = _normalize_tasks(tasks)
    lease_s = DEFAULT_LEASE_S if lease_s is None else float(lease_s)
    if lease_s <= 0.0:
        raise ValueError(f"lease_s must be positive, got {lease_s}")
    stall_s = None if timeout_s is None else float(timeout_s) + lease_s
    store = open_store(checkpoint_dir, resume, manifest)

    def _notify(kind, task_id, detail=""):
        if on_event is not None:
            on_event(kind, task_id, detail)

    nodes = {
        str(name): _Node(str(name), channel)
        for name, channel in dict(endpoints).items()
    }
    states = {
        task.task_id: _TaskState(task, _SpecOutcome(task.task_id)) for task in tasks
    }
    report = CampaignReport()

    # One campaign span owns the whole run: worker attempt subtrees are
    # adopted under per-task wrapper dicts, so run.json renders the
    # cluster as a single forest.  The trace id is a pure function of
    # the campaign seed -- a rerun stitches under the same id.
    campaign_span = trace.span("dist.campaign", tasks=len(tasks),
                               nodes=len(nodes))
    trace_id = trace.new_trace_id(base_seed)
    trace_ctx = {"trace_id": trace_id}
    if isinstance(campaign_span, trace.Span):
        campaign_span.trace_id = trace_id
        trace_ctx["parent_span_id"] = campaign_span.span_id

    # Heartbeat-piggybacked metric scrapes merge into the coordinator's
    # registry as node=-labeled series; (node, seq) idempotency keeps
    # duplicated/reordered heartbeats from double-counting.
    scrapes = metrics.ScrapeMerger()

    def _adopt_attempt(task_id, node_name, attempt, wall, shipped=None,
                       error=None):
        """Stitch one attempt into the campaign forest as a dist.task dict."""
        if not isinstance(campaign_span, trace.Span):
            return
        doc = {
            "name": "dist.task",
            "wall_s": round(wall, 6) if wall is not None else None,
            "cpu_s": None,
            "attrs": {"task": task_id, "node": node_name,
                      "attempt": int(attempt),
                      "seed": derive_task_seed(base_seed, attempt, label=task_id)},
        }
        if error is not None:
            doc["error"] = str(error)
        if shipped:
            doc["children"] = [dict(tree) for tree in shipped]
        campaign_span.adopt(doc)

    def _ingest_scrape(node_name, message):
        dump = message.get("metrics")
        if dump:
            scrapes.ingest(node_name, message.get("seq", 0), dump)

    def _resume():
        """Load digest-verified checkpoints before anything is scheduled."""
        for task in tasks:
            outcome = _resumed(store, task.task_id)
            if outcome is None:
                continue
            states[task.task_id].outcome = outcome
            _TASKS["resumed"].inc()
            flight.record("task_resumed", task_id=task.task_id,
                          attempts=outcome.record.attempts)
            _notify("resumed", task.task_id)

    pending = []

    def _alive():
        return [nodes[name] for name in sorted(nodes) if nodes[name].state == "alive"]

    def _update_node_gauges():
        alive = sum(1 for n in nodes.values() if n.state == "alive")
        _NODES["alive"].set(alive)
        _NODES["dead"].set(len(nodes) - alive)

    def _complete(task_id, payload, node_name, wall):
        state = states[task_id]
        state.wall_time += wall
        seed = derive_task_seed(base_seed, state.attempt, label=task_id)
        state.outcome.result = payload
        state.outcome.record = ExperimentRecord(
            task_id, "completed", state.attempt + 1, state.wall_time, seed,
            node=node_name,
        )
        if store is not None:
            store.save(task_id, payload, seed, state.attempt + 1, state.wall_time)
        _TASKS["completed"].inc()
        _node_tasks_counter(node_name).inc()
        flight.record(
            "task_completed", task_id=task_id, node=node_name,
            attempt=state.attempt, seed=seed,
        )
        _notify("completed", task_id)

    def _retry_or_fail(task_id, node_name, error, wall):
        state = states[task_id]
        seed = derive_task_seed(base_seed, state.attempt, label=task_id)
        failure, backoff = attempt_failed(
            task_id, node_name, state.attempt, seed, error, wall,
            max_retries=max_retries, notify=_notify,
        )
        state.outcome.attempt_failures.append(failure)
        state.wall_time += wall
        if backoff is not None:
            _TASKS["retried"].inc()
            state.attempt += 1
            state.ready_at = time.monotonic() + backoff
            state.node = None
            pending.insert(0, task_id)
            return
        state.outcome.record = ExperimentRecord(
            task_id, "failed", state.attempt + 1, state.wall_time, seed,
            node=node_name,
        )
        _TASKS["failed"].inc()

    def _lose_node(node, reason):
        if node.state == "dead":
            return
        node.state = "dead"
        _update_node_gauges()
        _LOGGER.warning(
            "node %s lost (%s)", node.name, reason,
            extra={"node": node.name, "reason": reason},
        )
        flight.record("node_lost", node=node.name, reason=reason)
        _notify("node_lost", None, f"{node.name}: {reason}")
        task_id = node.current
        node.current = None
        if task_id is None:
            return
        state = states[task_id]
        if state.done or state.node != node.name:
            return
        # Same attempt on a surviving node: the task never completed, so
        # the rerun draws the identical seed and result.
        # The killed attempt still joins the span forest: an error-marked
        # dist.task stamped with the lost node and the attempt seed.
        _adopt_attempt(task_id, node.name, state.attempt,
                       time.monotonic() - state.started_at, error="NodeLost")
        state.node = None
        state.reassignments += 1
        _TASKS["reassigned"].inc()
        pending.insert(0, task_id)
        flight.record("task_reassigned", task_id=task_id, node=node.name,
                      attempt=state.attempt)
        _notify("reassign", task_id, node.name)

    def _handle_message(node, message):
        kind = message.get("type")
        if kind == "hello":
            if message.get("version") != protocol.PROTOCOL_VERSION:
                _lose_node(node, f"protocol version {message.get('version')!r}")
            return
        if kind == "heartbeat":
            _ingest_scrape(node.name, message)
            task_id = message.get("task_id")
            state = states.get(task_id)
            if state is not None and not state.done and state.node == node.name:
                state.deadline = time.monotonic() + lease_s
            return
        if kind != "result":
            return
        _ingest_scrape(node.name, message)
        task_id = message.get("task_id")
        state = states.get(task_id)
        wall = float(message.get("wall_time", 0.0))
        if node.current == task_id:
            node.current = None
        if state is None:
            return
        if state.done:
            report.duplicates += 1
            _TASKS["duplicate"].inc()
            flight.record("duplicate_result", task_id=task_id, node=node.name,
                          attempt=message.get("attempt"))
            _notify("duplicate", task_id, node.name)
            return
        if message.get("ok"):
            # Accept a deterministic result from whichever node finished
            # first -- even one presumed dead behind a healed partition.
            if task_id in pending:
                pending.remove(task_id)
            _adopt_attempt(task_id, node.name, message.get("attempt", 0), wall,
                           shipped=message.get("spans"))
            _complete(task_id, message.get("payload"), node.name, wall)
        else:
            # Errors are only honored from the current assignee at the
            # current attempt; anything else is a stale report.
            if state.node != node.name or message.get("attempt") != state.attempt:
                return
            _adopt_attempt(task_id, node.name, state.attempt, wall,
                           shipped=message.get("spans"),
                           error=message["error"].get("error_type"))
            state.node = None
            _retry_or_fail(task_id, node.name, message["error"], wall)

    def _dispatch():
        now = time.monotonic()
        for node in _alive():
            if node.current is not None or not pending:
                continue
            chosen = None
            for task_id in pending:
                if states[task_id].ready_at <= now:
                    chosen = task_id
                    break
            if chosen is None:
                return
            state = states[chosen]
            seed = derive_task_seed(base_seed, state.attempt, label=chosen)
            try:
                # Trace context rides the assignment (not task identity:
                # the field is compare-excluded), so the worker's attempt
                # span lands under this campaign's trace id.
                node.channel.send(protocol.make_task_message(
                    dataclasses.replace(state.spec, trace=trace_ctx),
                    seed, state.attempt, lease_s, timeout_s,
                ))
            except ChannelClosed as exc:
                _lose_node(node, f"send failed: {exc}")
                continue
            pending.remove(chosen)
            node.current = chosen
            state.node = node.name
            state.deadline = now + lease_s
            state.started_at = now
            flight.record("task_assigned", task_id=chosen, node=node.name,
                          attempt=state.attempt, seed=seed)
            _notify("assign", chosen, node.name)

    def _drain():
        progressed = False
        for node in list(nodes.values()):
            channel = node.channel
            while True:
                try:
                    if not channel.poll(0.0):
                        break
                    message = channel.recv()
                except ChannelClosed as exc:
                    if node.state == "alive":
                        _lose_node(node, f"channel closed: {exc}")
                    break
                progressed = True
                if node.state == "alive":
                    _handle_message(node, message)
                # Messages from dead nodes: only completed results count.
                elif message.get("type") == "result" and message.get("ok"):
                    _handle_message(node, message)
        return progressed

    def _check_deadlines():
        now = time.monotonic()
        for node in _alive():
            task_id = node.current
            if task_id is None:
                continue
            state = states[task_id]
            if now > state.deadline:
                _LEASE_EXPIRIES.inc()
                flight.record("lease_expired", node=node.name, task_id=task_id,
                              attempt=state.attempt)
                _lose_node(node, f"lease on {task_id} expired")
            elif stall_s is not None and now - state.started_at > stall_s:
                _lose_node(node, f"{task_id} undelivered past timeout_s + lease_s "
                                 f"({stall_s:g}s)")

    def _execute_locally(task_id):
        """Finish one task in-process through the local supervisor."""
        state = states[task_id]
        spec = ExperimentSpec(task_id, lambda seed: protocol.execute_task(state.spec, seed))
        outcome = _run_spec(
            spec, store=store, resume=False, base_seed=base_seed,
            max_retries=max_retries, timeout_s=timeout_s, sleep=sleep,
            notify=_notify, first_attempt=state.attempt,
        )
        failed = outcome.record.status == "failed"
        _TASKS["retried"].inc(len(outcome.attempt_failures) - failed)
        _TASKS["failed" if failed else "local"].inc()
        outcome.attempt_failures[:0] = state.outcome.attempt_failures
        outcome.record.wall_time += state.wall_time
        state.outcome = outcome

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    with campaign_flight(flight_path, tasks=len(tasks), nodes=len(nodes),
                         base_seed=base_seed, trace_id=trace_id) as flight:
        if store is not None and resume:
            _resume()
        pending.extend(t.task_id for t in tasks if not states[t.task_id].done)
        with campaign_span:
            _update_node_gauges()
            while any(not state.done for state in states.values()):
                if not _alive():
                    remaining = [
                        t.task_id for t in tasks if not states[t.task_id].done
                    ]
                    if not fallback_local:
                        raise DistError(
                            f"all {len(nodes)} worker node(s) lost with "
                            f"{len(remaining)} task(s) outstanding"
                        )
                    # Slow, serial, but alive.
                    report.degraded_to_local = True
                    _FALLBACKS.inc()
                    _LOGGER.warning(
                        "all %d node(s) lost; finishing %d task(s) locally",
                        len(nodes), len(remaining),
                        extra={"nodes": len(nodes), "remaining": len(remaining)},
                    )
                    flight.record("local_fallback", remaining=len(remaining))
                    _notify("local_fallback", None, f"{len(remaining)} task(s)")
                    for task_id in remaining:
                        _execute_locally(task_id)
                    break
                _dispatch()
                progressed = _drain()
                _check_deadlines()
                if not progressed:
                    time.sleep(POLL_S)

        # --------------------------------------------------------------
        # Assemble the report in task order
        # --------------------------------------------------------------
        for task in tasks:
            state = states[task.task_id]
            state.outcome.record.reassignments = state.reassignments
            _merge(report, state.outcome)
        report.node_states = {name: node.state for name, node in nodes.items()}
        _LOGGER.info(
            "dist campaign finished: %d/%d tasks, %d failure(s), %d node(s) lost",
            len(report.results), len(tasks), len(report.failures),
            sum(1 for s in report.node_states.values() if s == "dead"),
            extra={"tasks": len(tasks), "failures": len(report.failures)},
        )
        flight.record("campaign_finished", completed=len(report.results),
                      tasks=len(tasks), failures=len(report.failures),
                      duplicates=report.duplicates,
                      degraded_to_local=report.degraded_to_local)
    return report
