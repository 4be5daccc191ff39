"""Process-pool map with deterministic results and metric merging.

:func:`pool_map` fans whole, independent jobs out over worker
processes -- a :func:`repro.net.sweep_topologies` batch of topology
specs is its one product caller; nothing inside one experiment uses
it, because there one dispatch costs more than the work it ships.  It
maps a module-level function over a task list and returns results
**in task order**, with three properties the serial code paths
already promise and parallelism must not break:

**Determinism.**  A task's randomness travels inside its item (a
topology spec carries its own seeds), never comes from worker identity
or scheduling order, so the result list is a pure function of
``(fn, items)`` — identical for ``workers=1`` and ``workers=8``.
:func:`derive_task_seed` is the sha256 derivation callers use to put
such seeds into their items.  When a
:class:`repro.resilience.faults.FaultPlan` is active the map
automatically degrades to the serial path, keeping the plan's
k-th-call fault counters in one process where they are meaningful.

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
"""

from __future__ import annotations

import hashlib
import time

from repro.obs import log as obs_log
from repro.obs import metrics

__all__ = [
    "derive_task_seed",
    "pool_map",
    "resolve_workers",
]

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


def _child_call(payload):
    index, fn, item = payload
    # Fork copied the parent's metric values into this process; reset so
    # the dump shipped back is exactly this task's delta.
    metrics.registry().reset()
    result = fn(item)
    return index, result, metrics.registry().to_dict()


# ----------------------------------------------------------------------
# The map
# ----------------------------------------------------------------------
def pool_map(fn, items, *, workers=1, label="pool"):
    """Map ``fn`` over ``items`` on a process pool, in task order.

    ``fn`` must be module-level (picklable) and is called as
    ``fn(item)``.  The result list is index-aligned with ``items`` and
    identical for every worker count.

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

    if workers == 1:
        _FALLBACKS["workers"].inc()
        return _serial_map(fn, items)
    if _fault_plan_active():
        _FALLBACKS["fault_plan"].inc()
        _LOGGER.info(
            "fault plan active; pool_map %s running serially", label,
            extra={"label": label, "tasks": len(items)},
        )
        return _serial_map(fn, items)

    results = [_MISSING] * len(items)
    survivors = _run_pool(fn, items, workers, results)
    if survivors:
        # The pool broke (worker death).  Finish the unfinished tasks
        # serially in this process.
        _FALLBACKS["broken_pool"].inc()
        _LOGGER.warning(
            "process pool broke; running %d remaining task(s) serially",
            len(survivors), extra={"label": label, "remaining": len(survivors)},
        )
        for index, value in zip(survivors,
                                _serial_map(fn, [items[i] for i in survivors])):
            results[index] = value

    assert not any(value is _MISSING for value in results)
    return results


STALL_S = 10.0
"""Seconds a pool with a dead worker may go without returning a result
before it is abandoned and its unfinished tasks rerun serially."""


def _run_pool(fn, items, workers, results):
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
    )
    try:
        waiting = []
        for index, item in enumerate(items):
            try:
                future = executor.submit(_child_call, (index, fn, item))
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


def _serial_map(fn, items):
    """In-process execution path; bit-identical results, live metrics."""
    try:
        from repro.resilience.faults import reach
    except Exception:  # pragma: no cover - partial-install guard
        def reach(site):
            return None

    out = []
    for item in items:
        reach("par.pool:task")
        started = time.perf_counter()
        out.append(fn(item))
        _WAIT.observe(time.perf_counter() - started)
        _TASKS["serial"].inc()
    return out
