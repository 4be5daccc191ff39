"""Topology sweeps: fan a batch of specs across worker processes.

A sweep is an embarrassingly parallel map of :func:`run_topology` over
a list of declarative specs, executed through :func:`repro.par.pool_map`
so it inherits the pool's contract: results are returned in spec
order and are identical at every worker count (each run's randomness
is owned by the seeds inside its spec, not by the pool).
"""

from __future__ import annotations

from repro.net.topology import run_topology
from repro.par import pool_map

__all__ = ["run_topology_task", "sweep_topologies"]


def run_topology_task(spec):
    """Pool task: run one topology spec (module-level, so it pickles)."""
    return run_topology(spec)


def sweep_topologies(specs, workers=1):
    """Run every spec in ``specs``; returns results in spec order.

    ``workers > 1`` fans the specs across processes.  The
    ``record_series`` key is honoured per spec, so a sweep can mix
    summary runs with runs that return every port's series.
    """
    specs = list(specs)
    if not specs:
        return []
    return pool_map(run_topology_task, specs, workers=workers, label="net.sweep")
