"""Wire protocol and task model for distributed campaigns.

A distributed campaign is an ordered list of :class:`TaskSpec` entries.
Unlike the thunks driven by :func:`repro.resilience.runner.run_campaign`
-- which close over arbitrary local state -- a ``TaskSpec`` must cross a
process (and possibly a machine) boundary, so it names a *task kind*
plus a JSON-able parameter dict.  Workers execute only the kinds of
the literal ``_KINDS`` table; arbitrary callables are never shipped
over the wire.

The kinds:

- ``"experiment"`` -- one experiment of the reproduction suite, rebuilt
  worker-side from ``(experiment_id, quick, sim_frames, trace_frames)``
  against the deterministic reference trace;
- ``"fgn"`` -- one fGn synthesis (``backend``, ``n``, ``hurst``), the
  payload of the dist tests and the distributed-campaign example (no
  campaign sends it);
- ``"topology"`` -- one :func:`repro.net.run_topology` spec, the unit
  of a :func:`repro.net.sweep_topologies` fan-out;
- ``"sleep"`` -- a simulated-latency task (sleep ``duration_s``, return
  ``value``), the workload of the scheduler benchmarks: it lets a
  1-CPU host measure coordinator scaling honestly, because sleeping
  workers genuinely overlap (a harness kind, like ``"fgn"``).

Seeds follow the campaign discipline of the local supervisor: a task's
seed is ``derive_task_seed(base_seed, attempt, label=task_id)``
(:func:`repro.par.pool.derive_task_seed`), a pure function of
``(base_seed, task_id, attempt)``.  Node loss *keeps* the attempt
number (the task never ran to completion, so the rerun is
bit-identical); a genuine task failure rotates it.

Messages are plain dicts with a ``"type"`` key -- see
:func:`make_task_message` and friends for the exact shapes.  They are
deliberately pickle-friendly primitives so the same protocol runs over
:mod:`multiprocessing.connection` sockets and the in-memory simulated
cluster transport.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "TaskSpec",
    "execute_task",
]

PROTOCOL_VERSION = 2
"""Carried in the hello handshake; mismatched peers refuse to pair.
Version 2: assignments carry the ``timeout_s`` the worker enforces."""


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One unit of distributable work: a stable id, a kind, parameters.

    ``trace`` optionally carries the coordinator's trace context --
    ``{"trace_id": ..., "parent_span_id": ...}`` -- so the worker's
    attempt spans open under the campaign span and the shipped subtree
    stitches back into one cluster-wide ``run.json``.  It is execution
    metadata, not identity: two specs differing only in trace context
    are the same task.
    """

    task_id: str
    kind: str
    params: dict = dataclasses.field(default_factory=dict)
    trace: dict | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        if not self.task_id or not isinstance(self.task_id, str):
            raise ValueError(f"task_id must be a non-empty string, got {self.task_id!r}")
        if not isinstance(self.params, dict):
            raise TypeError(f"params must be a dict, got {type(self.params).__name__}")
        if self.trace is not None and not isinstance(self.trace, dict):
            raise TypeError(f"trace must be a dict, got {type(self.trace).__name__}")

    def to_wire(self):
        doc = {"task_id": self.task_id, "kind": self.kind, "params": dict(self.params)}
        if self.trace is not None:
            doc["trace"] = dict(self.trace)
        return doc

    @classmethod
    def from_wire(cls, doc):
        return cls(doc["task_id"], doc["kind"], dict(doc.get("params", {})),
                   trace=doc.get("trace"))


def execute_task(task, seed):
    """Run one :class:`TaskSpec` (or wire dict) locally; returns the payload.

    The :func:`repro.resilience.faults.reach` hook fires per task under
    the site name ``dist.task:<kind>``, so an ambient
    :class:`~repro.resilience.faults.FaultPlan` can fault distributed
    work exactly like any other instrumented call site.
    """
    from repro.resilience.faults import reach

    if isinstance(task, dict):
        task = TaskSpec.from_wire(task)
    fn = _KINDS.get(task.kind)
    if fn is None:
        raise ValueError(
            f"unknown task kind {task.kind!r}; this worker runs {sorted(_KINDS)}"
        )
    reach(f"dist.task:{task.kind}")
    return fn(dict(task.params), seed)


# ----------------------------------------------------------------------
# Task kinds
# ----------------------------------------------------------------------
def _run_experiment_task(params, seed):
    """One experiment of the suite, rebuilt against the reference trace."""
    from repro.experiments.data import reference_trace
    from repro.experiments.runner import experiment_specs

    trace = reference_trace(n_frames=int(params["trace_frames"]))
    specs = {
        spec.experiment_id: spec
        for spec in experiment_specs(
            trace,
            quick=bool(params.get("quick", False)),
            sim_frames=params.get("sim_frames"),
        )
    }
    experiment_id = params["experiment_id"]
    if experiment_id not in specs:
        raise ValueError(
            f"unknown experiment id {experiment_id!r}; known: {sorted(specs)}"
        )
    return specs[experiment_id].run(seed)


def _run_fgn_task(params, seed):
    """One fGn synthesis."""
    from repro.core.fgn import fgn_generator

    hurst = float(params.get("hurst", 0.8))
    backend = params.get("backend", "davies-harte")
    rng = np.random.default_rng(seed)
    return fgn_generator(backend, hurst).generate(int(params["n"]), rng=rng)


def _run_topology_task(params, seed):
    """One network topology run; the spec carries its own seeds."""
    from repro.net.topology import run_topology

    del seed
    return run_topology(params)


def _run_sleep_task(params, seed):
    """Simulated-latency work: occupy a worker without burning a core."""
    import time

    duration = float(params.get("duration_s", 0.0))
    if duration > 0.0:
        time.sleep(duration)
    return params.get("value")


_KINDS = {
    "experiment": _run_experiment_task,
    "topology": _run_topology_task,
    # Harness kinds: the dist tests, benchmarks and the example send
    # them; no product campaign does.
    "fgn": _run_fgn_task,
    "sleep": _run_sleep_task,
}


# ----------------------------------------------------------------------
# Message constructors (dicts on the wire; one "type" key each)
# ----------------------------------------------------------------------
def make_hello(node, pid):
    return {"type": "hello", "version": PROTOCOL_VERSION, "node": str(node),
            "pid": int(pid)}


def make_task_message(task, seed, attempt, lease_s, timeout_s=None):
    """An assignment; ``timeout_s`` is the attempt's soft timeout (or ``None``)."""
    return {"type": "task", "task": task.to_wire(), "seed": int(seed),
            "attempt": int(attempt), "lease_s": float(lease_s),
            "timeout_s": None if timeout_s is None else float(timeout_s)}


def _piggyback(doc, spans=None, seq=None, metrics=None):
    """Attach a worker's span subtree and cumulative metric scrape."""
    if spans:
        doc["spans"] = list(spans)
    if metrics:
        doc["seq"] = int(seq if seq is not None else 0)
        doc["metrics"] = metrics
    return doc


def make_heartbeat(node, task_id, attempt, seq=None, metrics=None):
    """Lease renewal, optionally piggybacking an incremental metric scrape.

    ``metrics`` is the worker's *cumulative* registry dump and ``seq`` a
    monotone per-connection scrape number; the coordinator's
    :class:`repro.obs.metrics.ScrapeMerger` applies each ``(node, seq)``
    at most once, so duplicated or reordered heartbeats behind a healed
    partition never double-count.
    """
    return _piggyback({"type": "heartbeat", "node": str(node),
                       "task_id": str(task_id), "attempt": int(attempt)},
                      seq=seq, metrics=metrics)


def make_result(node, task_id, attempt, payload, wall_time, spans=None,
                seq=None, metrics=None):
    """A completed attempt; may carry the worker's span subtree and a
    final cumulative metric scrape alongside the payload."""
    return _piggyback({"type": "result", "node": str(node),
                       "task_id": str(task_id), "attempt": int(attempt),
                       "ok": True, "payload": payload,
                       "wall_time": float(wall_time)}, spans, seq, metrics)


def make_error(node, task_id, attempt, exc, wall_time, spans=None, seq=None,
               metrics=None):
    """A failed attempt; the error is classified by the local supervisor's
    :func:`~repro.resilience.runner.error_doc`."""
    from repro.resilience.runner import error_doc

    return _piggyback({"type": "result", "node": str(node),
                       "task_id": str(task_id), "attempt": int(attempt),
                       "ok": False, "error": error_doc(exc),
                       "wall_time": float(wall_time)}, spans, seq, metrics)
