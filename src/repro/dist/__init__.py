"""Fault-tolerant distributed campaigns (``repro.dist``).

Shards experiment campaigns and fGn-synthesis task lists across worker
nodes over stdlib transports, with the robustness machinery a flaky
fleet needs: per-task leases renewed by heartbeats, node-loss detection
and work reassignment (same attempt seed, so reruns are bit-identical),
bounded seed-rotated retry for genuine failures, graceful degradation
to local serial execution when every node dies, checkpoint/resume
through the :mod:`repro.resilience` store, and a shared
content-addressed artifact store with end-to-end digest verification.

Layers (each importable on its own):

- :mod:`repro.dist.protocol` -- task model, task-kind registry, wire
  messages, artifact references;
- :mod:`repro.dist.transport` -- socket channels
  (:mod:`multiprocessing.connection`) and the in-memory simulated
  fabric with injectable latency/partitions/death;
- :mod:`repro.dist.worker` -- the worker loop and ``repro dist serve``;
- :mod:`repro.dist.coordinator` -- leases, heartbeats and
  reassignment around the :mod:`repro.resilience.runner` attempt
  policy, report and executor; :func:`run_distributed`;
- :mod:`repro.dist.simcluster` -- N simulated nodes + seeded
  :class:`FaultScript` chaos, the harness behind the chaos wall and
  the scheduler benchmarks;
- :mod:`repro.dist.campaign` -- experiment-suite and fGn task lists,
  ``"sim:3"`` / ``"host:port,..."`` node specs (the suite itself runs
  through ``repro.experiments.runner.run_all(nodes=...)``) and forked
  local worker processes (``repro net --workers N`` sweeps);
- :mod:`repro.dist.top` -- ``repro dist top``, the live console over
  the campaign's streamed flight recording.

See ``docs/distributed.md`` for the protocol walk-through and tuning
guidance.
"""

from repro.dist.campaign import (
    experiment_tasks,
    fgn_tasks,
    local_endpoints,
    open_endpoints,
    parse_nodes,
)
from repro.dist.coordinator import DistError, run_distributed
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ArtifactMiss,
    TaskSpec,
    execute_task,
    make_artifact_ref,
    register_task_kind,
    resolve_payload,
)
from repro.dist.simcluster import FaultEvent, FaultScript, SimCluster
from repro.dist.top import TopView, run_top
from repro.dist.transport import ChannelClosed, connect, listen, probe
from repro.dist.worker import WorkerLoop, serve

__all__ = [
    "PROTOCOL_VERSION",
    "ArtifactMiss",
    "ChannelClosed",
    "DistError",
    "FaultEvent",
    "FaultScript",
    "SimCluster",
    "TaskSpec",
    "TopView",
    "WorkerLoop",
    "connect",
    "execute_task",
    "experiment_tasks",
    "fgn_tasks",
    "listen",
    "local_endpoints",
    "make_artifact_ref",
    "open_endpoints",
    "parse_nodes",
    "probe",
    "register_task_kind",
    "resolve_payload",
    "run_distributed",
    "run_top",
    "serve",
]
