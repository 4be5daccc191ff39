"""Seeded process-pool map with deterministic results and metric merging.

:func:`pool_map` is the one parallel primitive the rest of the code
builds on: it maps a module-level function over a task list and
returns results **in task order**, with three properties the serial
code paths already promise and parallelism must not break:

**Determinism.**  Every task's seed is derived from the caller's base
seed and the task *index* via sha256 (:func:`derive_task_seed`), never
from worker identity or scheduling order, so the result list is a pure
function of ``(fn, items, base_seed)`` — identical for ``workers=1``
and ``workers=8``.  When a :class:`repro.resilience.faults.FaultPlan`
is active the map automatically degrades to the serial path, keeping
the plan's k-th-call fault counters in one process where they are
meaningful.

**Robustness.**  A worker that dies (OOM kill, injected crash) breaks
the pool; the pending tasks are transparently re-run serially in the
parent, so ``pool_map`` either returns the full deterministic result
list or raises the task's own exception — never a half-filled list.

**Observability.**  The :mod:`repro.obs` metrics registry is
process-local, so counters incremented inside a worker would silently
vanish with it.  Each worker resets its (fork-inherited) registry
before a task and ships the per-task delta dump back with the result;
the parent folds it in via :func:`repro.obs.metrics.merge_dump`.  Task
counts, cache hits and histogram observations therefore survive the
pool boundary exactly.

Large read-only ndarrays shared by every task (a 171k-frame trace, a
bank of arrival processes) go through ``common=``: arrays at or above
:data:`SHM_THRESHOLD` bytes are placed in POSIX shared memory once and
attached zero-copy in each worker instead of being pickled per task.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.obs import log as obs_log
from repro.obs import metrics

__all__ = [
    "SHM_THRESHOLD",
    "derive_task_seed",
    "pool_map",
    "resolve_workers",
]

SHM_THRESHOLD = 1 << 20
"""Arrays in ``common=`` at or above this many bytes ride shared memory."""

_LOGGER = obs_log.get_logger("par.pool")

_TASKS = {
    mode: metrics.registry().counter(
        "repro_par_pool_tasks_total",
        help="Tasks completed by pool_map, by execution mode",
        unit="tasks", labels={"mode": mode},
    )
    for mode in ("parallel", "serial")
}

_FALLBACKS = {
    reason: metrics.registry().counter(
        "repro_par_pool_fallback_total",
        help="Serial fallbacks taken by pool_map, by reason",
        unit="fallbacks", labels={"reason": reason},
    )
    for reason in ("workers", "fault_plan", "broken_pool")
}

_WAIT = metrics.registry().histogram(
    "repro_par_pool_wait_seconds",
    help="Wall seconds from task dispatch to result arrival",
    unit="seconds",
)

_WIDTH = metrics.registry().gauge(
    "repro_par_pool_workers",
    help="Worker-process count of the most recent pool_map",
    unit="workers",
)


def derive_task_seed(base_seed, index, label="task"):
    """sha256-derived per-task seed: a pure function of ``(base, index)``.

    Worker identity and scheduling order never enter the derivation,
    which is what makes a parallel map's randomness reproducible and
    identical to the serial map's.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:{label}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_workers(workers):
    """Normalize a ``workers=`` argument to a positive int (``None`` -> 1)."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _fault_plan_active():
    # Lazy import: resilience.faults pulls in stream/core modules that
    # themselves import repro.par (cache hooks) — importing it at module
    # load would cycle.
    try:
        from repro.resilience.faults import active_plan
    except Exception:  # pragma: no cover - partial-install guard
        return False
    return active_plan() is not None


# ----------------------------------------------------------------------
# Shared-memory transfer of large common arrays
# ----------------------------------------------------------------------
class _ShmToken:
    """Picklable handle for an ndarray living in a shared-memory block."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name, shape, dtype):
        self.name = name
        self.shape = shape
        self.dtype = dtype


def _export_common(common):
    """Stage ``common`` for workers; big arrays go to shared memory.

    Returns ``(spec, handles)``: the picklable spec handed to worker
    initializers and the parent-owned SharedMemory handles to unlink
    once the pool is done.
    """
    from multiprocessing import shared_memory

    spec = {}
    handles = []
    for key, value in common.items():
        if isinstance(value, np.ndarray) and value.nbytes >= SHM_THRESHOLD:
            value = np.ascontiguousarray(value)
            block = shared_memory.SharedMemory(create=True, size=value.nbytes)
            np.ndarray(value.shape, dtype=value.dtype, buffer=block.buf)[...] = value
            spec[key] = _ShmToken(block.name, value.shape, str(value.dtype))
            handles.append(block)
        else:
            spec[key] = value
    return spec, handles


def _release_common(handles):
    for block in handles:
        try:
            block.close()
        except BufferError:  # a view is still alive somewhere; unlink still works
            pass
        try:
            block.unlink()
        except FileNotFoundError:
            pass


def _resolve_common(spec):
    """Worker-side: attach shared blocks, yielding read-only views."""
    from multiprocessing import shared_memory

    resolved = {}
    for key, value in spec.items():
        if isinstance(value, _ShmToken):
            # Fork-context workers share the parent's resource tracker,
            # and the tracker's name cache is a set: this attach-time
            # re-register is a no-op, and the single unregister happens
            # when the parent unlinks the segment.  (Do NOT unregister
            # here — a second worker's unregister would double-remove.)
            block = shared_memory.SharedMemory(name=value.name, create=False)
            array = np.ndarray(value.shape, dtype=value.dtype, buffer=block.buf)
            array.flags.writeable = False
            resolved[key] = array
            _ATTACHED.append(block)  # keep the mapping alive for the view
        else:
            resolved[key] = value
    return resolved


# Worker-process globals (populated by the pool initializer).
_WORKER_COMMON = None
_ATTACHED = []


def _child_init(spec):
    global _WORKER_COMMON
    _WORKER_COMMON = None if spec is None else _resolve_common(spec)


def _task_args(item, seed, common):
    args = [item]
    if seed is not None:
        args.append(seed)
    if common is not None:
        args.append(common)
    return args


def _child_call(payload):
    index, fn, item, seed = payload
    # Fork copied the parent's metric values into this process; reset so
    # the dump shipped back is exactly this task's delta.
    metrics.registry().reset()
    result = fn(*_task_args(item, seed, _WORKER_COMMON))
    return index, result, metrics.registry().to_dict()


# ----------------------------------------------------------------------
# The map
# ----------------------------------------------------------------------
def pool_map(fn, items, *, workers=1, base_seed=None, common=None, label="pool"):
    """Map ``fn`` over ``items`` on a seeded process pool, in task order.

    ``fn`` must be module-level (picklable) and is called with
    positional arguments ``(item[, seed][, common])``: the seed is
    present iff ``base_seed`` is given (derived per task index via
    :func:`derive_task_seed`), the common dict iff ``common`` is given.
    The result list is index-aligned with ``items`` and identical for
    every worker count.

    Serial execution is used when ``workers == 1``, when a FaultPlan is
    active (fault counters are process-local and must fire
    deterministically), and for any tasks left pending after a worker
    death breaks the pool.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_workers(workers)
    _WIDTH.set(workers)

    seeds = [
        None if base_seed is None else derive_task_seed(base_seed, i, label=label)
        for i in range(len(items))
    ]

    if workers == 1:
        _FALLBACKS["workers"].inc()
        return _serial_map(fn, items, seeds, range(len(items)), common)
    if _fault_plan_active():
        _FALLBACKS["fault_plan"].inc()
        _LOGGER.info(
            "fault plan active; pool_map %s running serially", label,
            extra={"label": label, "tasks": len(items)},
        )
        return _serial_map(fn, items, seeds, range(len(items)), common)

    spec, handles = (None, []) if common is None else _export_common(common)
    results = [_MISSING] * len(items)
    try:
        survivors = _run_pool(fn, items, seeds, spec, workers, results)
        if survivors:
            # The pool broke (worker death).  Finish the unfinished
            # tasks serially in this process.
            _FALLBACKS["broken_pool"].inc()
            _LOGGER.warning(
                "process pool broke; running %d remaining task(s) serially",
                len(survivors), extra={"label": label, "remaining": len(survivors)},
            )
            for index, value in zip(
                survivors,
                _serial_map(fn, [items[i] for i in survivors],
                            [seeds[i] for i in survivors], survivors, common),
            ):
                results[index] = value
    finally:
        _release_common(handles)

    assert not any(value is _MISSING for value in results)
    return results


STALL_S = 10.0
"""Seconds a pool with a dead worker may go without returning a result
before it is abandoned and its unfinished tasks rerun serially."""


def _run_pool(fn, items, seeds, spec, workers, results):
    """Run one executor over every task; returns indexes left unfinished.

    A worker SIGKILLed mid-protocol (holding a queue lock, or halfway
    through writing a result) can leave the executor waiting forever
    instead of raising ``BrokenProcessPool``.  So every result wait is
    bounded by :data:`STALL_S`; a wait that times out while a worker is
    dead abandons the pool, and a pool that lost a worker is never
    joined, only killed.
    """
    import concurrent.futures
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    unfinished = []
    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        mp_context=context,
        initializer=_child_init,
        initargs=(spec,),
    )
    try:
        waiting = []
        for index, item in enumerate(items):
            try:
                future = executor.submit(_child_call, (index, fn, item, seeds[index]))
            except BrokenProcessPool:
                unfinished.extend(range(index, len(items)))
                break
            waiting.append((future, index, time.perf_counter()))
        for position, (future, index, submitted) in enumerate(waiting):
            try:
                got_index, value, dump = _await_result(future, executor)
            except BrokenProcessPool:
                unfinished.append(index)
                continue
            except concurrent.futures.TimeoutError:
                _LOGGER.warning(
                    "process pool stalled %.0f s after a worker died; abandoning it",
                    STALL_S, extra={"remaining": len(waiting) - position},
                )
                unfinished.extend(i for _, i, _ in waiting[position:])
                break
            _WAIT.observe(time.perf_counter() - submitted)
            metrics.merge_dump(dump)
            _TASKS["parallel"].inc()
            results[got_index] = value
    finally:
        if unfinished:
            _abandon(executor)
        else:
            executor.shutdown(wait=True)
    return sorted(unfinished)


def _workers_of(executor):
    # ProcessPoolExecutor keeps its worker processes in a private dict;
    # nothing public says whether one died or lets the parent kill it.
    return list((executor._processes or {}).values())


def _await_result(future, executor):
    """``future.result()``, raising ``TimeoutError`` once the pool is wedged.

    A healthy pool is waited on indefinitely, however slow its tasks.
    """
    import concurrent.futures

    while True:
        try:
            return future.result(timeout=STALL_S)
        except concurrent.futures.TimeoutError:
            if all(process.exitcode is None for process in _workers_of(executor)):
                continue
            raise


def _abandon(executor):
    """Stop a pool that lost a worker without joining it: kill what is left."""
    processes = _workers_of(executor)
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()
    for process in processes:
        process.join(timeout=STALL_S)


class _Missing:
    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


def _serial_map(fn, items, seeds, indexes, common):
    """In-process execution path; bit-identical results, live metrics.

    ``common`` is passed straight through (no process-global state), so
    concurrent serial maps on different threads — e.g. a threaded
    campaign whose experiments each call :func:`pool_map` — cannot see
    each other's common payloads.
    """
    try:
        from repro.resilience.faults import reach
    except Exception:  # pragma: no cover - partial-install guard
        def reach(site):
            return None

    out = []
    for item, seed, index in zip(items, seeds, indexes):
        reach("par.pool:task")
        started = time.perf_counter()
        out.append(fn(*_task_args(item, seed, common)))
        _WAIT.observe(time.perf_counter() - started)
        _TASKS["serial"].inc()
    return out
