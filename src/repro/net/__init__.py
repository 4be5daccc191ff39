"""repro.net: a deterministic multi-hop network simulator.

The paper studies self-similar VBR video through a *single* finite
buffer; this package carries the same slot-fluid traffic model through
feed-forward multi-hop topologies.  The pieces:

- :mod:`repro.net.link` / :mod:`repro.net.node` -- topology primitives:
  directed links with capacity and propagation delay, nodes with
  per-port finite buffers and per-hop statistics;
- :mod:`repro.net.sched` -- pluggable per-hop disciplines (FIFO, strict
  priority, weighted fair queueing) sharing the verified slot-fluid
  drop arithmetic of :func:`repro.simulation.queue.simulate_queue`;
- :mod:`repro.net.flow` -- traffic sources walking a path, drained
  once per run, with end-to-end delay/loss accounting;
- :mod:`repro.net.topology` -- declarative specs, network assembly and
  the engine: ports served in topological order, each folded once over
  the whole horizon (``repro net`` CLI input format);
- :mod:`repro.net.sweep` -- parameter sweeps over topologies through
  the :mod:`repro.par` process pool.

The anchor invariant: a one-flow, one-hop FIFO topology reproduces the
single-queue simulator bit for bit -- same arrivals, capacity and
buffer give the identical loss and backlog trajectory.  Everything
multi-hop is then an extension of an already-verified base case.
"""

from repro.net.flow import Flow, FlowStats, array_slots, chunk_slots, stream_slots
from repro.net.link import Link
from repro.net.node import Node, Port
from repro.net.sched import (
    DISCIPLINES,
    Discipline,
    FIFODiscipline,
    PriorityDiscipline,
    RunResult,
    StepResult,
    WFQDiscipline,
    make_discipline,
)
from repro.net.sweep import run_topology_task, sweep_topologies
from repro.net.topology import Network, build_network, run_topology, spec_from_json

__all__ = [
    "Link",
    "Node",
    "Port",
    "Discipline",
    "FIFODiscipline",
    "PriorityDiscipline",
    "WFQDiscipline",
    "StepResult",
    "RunResult",
    "DISCIPLINES",
    "make_discipline",
    "Flow",
    "FlowStats",
    "array_slots",
    "chunk_slots",
    "stream_slots",
    "Network",
    "build_network",
    "run_topology",
    "spec_from_json",
    "run_topology_task",
    "sweep_topologies",
]
