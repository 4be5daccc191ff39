"""Failure handling for long-running reproduction workloads.

A full campaign over the 171,000-frame trace is hours of sequential
compute; Paxson's fast-synthesis paper (PAPERS.md) motivates cheap
regeneration precisely because long self-similar runs die and must be
rerun.  This subsystem supplies the three layers that make such runs
survivable:

- :mod:`repro.resilience.faults` -- a seeded, context-manager-driven
  fault plan: NaN/Inf bursts and truncation injected into chunk
  streams, ``MemoryError``/``TimeoutError``/transient ``RuntimeError``
  raised at the k-th call of an instrumented site, and Bellcore-format
  trace files corrupted in every way a disk or transfer can manage --
  all deterministic under one seed, so every degradation path is a
  reproducible test case.
- :mod:`repro.resilience.runner` -- the campaign supervisor: each
  experiment runs in isolation (a failure becomes a structured
  :class:`~repro.resilience.runner.ExperimentFailure` and the campaign
  continues), transient faults are retried with seed rotation and
  exponential backoff, soft timeouts bound each experiment, and JSON
  checkpoints let a killed campaign resume, re-verifying completed
  results against their stored :mod:`repro.qa.golden` digests.
- Hardened edges elsewhere in the tree:
  :func:`repro.video.tracefile.load_trace` strict/lenient modes,
  :meth:`repro.stream.pipeline.Stream.guard`, and seed-replay
  recovery of a dead source in
  :class:`repro.stream.pipeline.ParallelSources`.
"""

from repro.resilience.faults import (
    FaultPlan,
    FlakyChunkSource,
    InjectedFault,
    TransientFault,
    active_plan,
    corrupt_trace_file,
    reach,
)
from repro.resilience.runner import (
    CampaignReport,
    CheckpointStore,
    ExperimentFailure,
    ExperimentRecord,
    ExperimentSpec,
    run_campaign,
)

__all__ = [
    "CampaignReport",
    "CheckpointStore",
    "ExperimentFailure",
    "ExperimentRecord",
    "ExperimentSpec",
    "FaultPlan",
    "FlakyChunkSource",
    "InjectedFault",
    "TransientFault",
    "active_plan",
    "corrupt_trace_file",
    "reach",
    "run_campaign",
]
