"""Wire protocol and task model for distributed campaigns.

A distributed campaign is an ordered list of :class:`TaskSpec` entries.
Unlike the thunks driven by :func:`repro.resilience.runner.run_campaign`
-- which close over arbitrary local state -- a ``TaskSpec`` must cross a
process (and possibly a machine) boundary, so it names a registered
*task kind* plus a JSON-able parameter dict.  Workers execute only
kinds registered in their own process (:func:`register_task_kind`);
arbitrary callables are never shipped over the wire.

Built-in kinds:

- ``"experiment"`` -- one experiment of the reproduction suite, rebuilt
  worker-side from ``(experiment_id, quick, sim_frames, trace_frames)``
  against the deterministic reference trace;
- ``"fgn"`` -- one fGn synthesis (``backend``, ``n``, ``hurst``); when
  a shared :mod:`repro.par.cache` artifact store is active the payload
  is parked there and only a digest-carrying artifact reference crosses
  the wire;
- ``"topology"`` -- one :func:`repro.net.run_topology` spec, the unit
  of a :func:`repro.net.sweep_topologies` fan-out;
- ``"sleep"`` -- a simulated-latency task (sleep ``duration_s``, return
  ``value``), the workload of the scheduler benchmarks: it lets a
  1-CPU host measure coordinator scaling honestly, because sleeping
  workers genuinely overlap.

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
import hashlib

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ArtifactMiss",
    "TaskSpec",
    "execute_task",
    "is_artifact_ref",
    "make_artifact_ref",
    "register_task_kind",
    "resolve_payload",
]

PROTOCOL_VERSION = 2
"""Carried in the hello handshake; mismatched peers refuse to pair.
Version 2: assignments carry the ``timeout_s`` the worker enforces."""


class ArtifactMiss(RuntimeError):
    """A result referenced a shared-store artifact that cannot be served.

    Raised when the entry is absent or was evicted after failing digest
    re-verification.  Classified as transient: the coordinator's remedy
    is to re-run the task, never to trust the stored bytes.
    """


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


# ----------------------------------------------------------------------
# Task-kind registry
# ----------------------------------------------------------------------
_KINDS = {}


def register_task_kind(kind, fn):
    """Register ``fn(params, seed) -> payload`` as executor for ``kind``.

    Registration is process-local: a socket worker only executes kinds
    its own process registered (the built-ins plus whatever its
    embedding application added) -- the coordinator cannot inject code.
    """
    if not kind or not isinstance(kind, str):
        raise ValueError(f"kind must be a non-empty string, got {kind!r}")
    if not callable(fn):
        raise TypeError(f"executor for {kind!r} must be callable")
    _KINDS[kind] = fn
    return fn


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
            f"unknown task kind {task.kind!r}; this worker registered "
            f"{sorted(_KINDS)}"
        )
    reach(f"dist.task:{task.kind}")
    return fn(dict(task.params), seed)


# ----------------------------------------------------------------------
# Artifact references (shared content-addressed store)
# ----------------------------------------------------------------------
_ARTIFACT_KEY = "__dist_artifact__"


def _payload_digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def make_artifact_ref(algorithm, params, array, cache):
    """Park ``array`` in ``cache`` and return a digest-carrying reference.

    The reference travels instead of the payload; whoever resolves it
    re-verifies the array bytes against the digest recorded *here*, so
    a poisoned store entry can never be served end-to-end even if the
    store's own digest check were bypassed.
    """
    array = np.asarray(array)
    cache.put(algorithm, params, array)
    return {
        _ARTIFACT_KEY: PROTOCOL_VERSION,
        "algorithm": algorithm,
        "params": dict(params),
        "digest": _payload_digest(array),
        "shape": list(array.shape),
        "dtype": str(array.dtype),
    }


def is_artifact_ref(payload):
    return isinstance(payload, dict) and _ARTIFACT_KEY in payload


def resolve_payload(payload, cache=None):
    """Fetch an artifact reference from the shared store; verify digest.

    Non-reference payloads pass through untouched.  A missing entry, a
    store-evicted (poisoned) entry, or a digest mismatch all raise
    :class:`ArtifactMiss` -- the caller re-runs the task rather than
    serving doubtful bytes.
    """
    if not is_artifact_ref(payload):
        return payload
    if cache is None:
        from repro.par.cache import active_cache

        cache = active_cache()
    if cache is None:
        raise ArtifactMiss(
            f"result of {payload['algorithm']!r} is an artifact reference but no "
            f"shared cache is configured on this side"
        )
    stored = cache.get(payload["algorithm"], payload["params"])
    if stored is None:
        raise ArtifactMiss(
            f"artifact {payload['algorithm']!r} missing from the shared store "
            f"(absent or evicted after digest re-verification)"
        )
    array = np.asarray(stored)
    if _payload_digest(array) != payload["digest"]:
        raise ArtifactMiss(
            f"artifact {payload['algorithm']!r} failed end-to-end digest "
            f"verification; refusing to serve it"
        )
    return array


# ----------------------------------------------------------------------
# Built-in task kinds
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
    """One fGn synthesis; parks the trace in the shared store when active."""
    from repro.core.fgn import fgn_generator
    from repro.par.cache import active_cache

    n = int(params["n"])
    hurst = float(params.get("hurst", 0.8))
    backend = params.get("backend", "davies-harte")
    rng = np.random.default_rng(seed)
    sample = fgn_generator(backend, hurst).generate(n, rng=rng)
    cache = active_cache()
    if cache is not None:
        key_params = {"n": n, "hurst": hurst, "backend": backend, "seed": int(seed)}
        return make_artifact_ref("dist.fgn", key_params, sample, cache)
    return sample


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


register_task_kind("experiment", _run_experiment_task)
register_task_kind("fgn", _run_fgn_task)
register_task_kind("topology", _run_topology_task)
register_task_kind("sleep", _run_sleep_task)


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
