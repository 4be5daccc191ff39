"""Topology sweeps: fan a batch of specs across local worker processes.

A sweep is an embarrassingly parallel map of :func:`run_topology` over
a list of declarative specs.  With ``workers > 1`` each spec becomes a
``"topology"`` task driven by :func:`repro.dist.run_distributed` over
:func:`repro.dist.campaign.local_endpoints`, so the sweep inherits the
coordinator's contract: results come back in spec order and are
identical at every worker count (each run's randomness is owned by the
seeds inside its spec, not by the node that ran it).
"""

from __future__ import annotations

import contextlib
import logging

from repro.net.topology import run_topology
from repro.obs import log as obs_log
from repro.par.pool import resolve_workers

__all__ = ["sweep_topologies"]


def sweep_topologies(specs, workers=1):
    """Run every spec in ``specs``; returns results in spec order.

    ``workers > 1`` fans the specs across that many local worker
    processes (at most one per spec).  The sweep runs serially in this
    process for one worker, a single spec, or while a
    :class:`~repro.resilience.faults.FaultPlan` is active (its k-th-call
    counters only mean something in one process).  A spec whose worker
    attempt failed runs once more here, so a genuine error raises with
    its own type and message and a worker-only fault costs a rerun.
    The ``record_series`` key is honoured per spec, so a sweep can mix
    summary runs with runs that return every port's series.  Because of
    that rerun, the fan-out's own ``repro.dist`` and ``repro.resilience``
    diagnostics (attempt failures, the campaign summary) are dropped
    while it runs, here and in its workers: a sweep logs what a serial
    one would.
    """
    # Deferred: it loads repro.stream, which importing repro.net does not.
    from repro.resilience.faults import active_plan

    specs = list(specs)
    workers = min(resolve_workers(workers), len(specs))
    if workers <= 1 or active_plan() is not None:
        return [run_topology(spec) for spec in specs]
    # Deferred: the campaign imports repro.net at set-up and must not
    # pay for repro.dist or multiprocessing.
    from repro.dist.campaign import local_endpoints
    from repro.dist.coordinator import run_distributed
    from repro.dist.protocol import TaskSpec

    tasks = [TaskSpec(f"spec{index}", "topology", spec)
             for index, spec in enumerate(specs)]
    with _silenced("dist", "resilience"), local_endpoints(workers) as endpoints:
        report = run_distributed(tasks, endpoints, max_retries=0)
    return [
        report.results[task.task_id] if task.task_id in report.results
        else run_topology(spec)
        for task, spec in zip(tasks, specs)
    ]


@contextlib.contextmanager
def _silenced(*names):
    """Drop every record of the ``repro.<name>`` loggers and their children meanwhile.

    Processes forked inside the block inherit the silence.
    """
    loggers = [obs_log.get_logger(name) for name in names]
    levels = [logger.level for logger in loggers]
    for logger in loggers:
        logger.setLevel(logging.CRITICAL + 1)
    try:
        yield
    finally:
        for logger, level in zip(loggers, levels):
            logger.setLevel(level)
