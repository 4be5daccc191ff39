"""Run the complete experiment suite and summarize measured vs paper.

``experiment_specs`` declares the suite as an ordered list of
:class:`~repro.resilience.runner.ExperimentSpec`; ``run_all`` drives it
through the :mod:`repro.resilience` campaign supervisor (per-experiment
isolation, bounded retry, soft timeouts, checkpoint/resume) -- on local
threads or on worker nodes -- and returns a dict of results;
``summary_lines`` renders the paper-claim ledger
(:mod:`repro.experiments.claims`) against those results, for the CLI
and the examples.
"""

from __future__ import annotations

import hashlib
import time

from repro.experiments import (
    fig01_timeseries,
    fig02_lowfreq,
    fig03_segments,
    fig04_ccdf,
    fig05_lefttail,
    fig06_density,
    fig07_acf,
    fig08_periodogram,
    fig09_confidence,
    fig10_selfsimilar,
    fig11_variance_time,
    fig12_pox,
    fig13_system,
    fig14_qc,
    fig15_smg,
    fig16_model_vs_trace,
    fig17_loss_process,
    fig_alloc_compare,
    fig_alloc_smg,
    fig_net_hurst_hops,
    fig_net_tandem,
    table1,
    table2,
    table3,
)
from repro.experiments.data import reference_trace
from repro.obs import log as obs_log
from repro.resilience.runner import ExperimentSpec, run_campaign

__all__ = [
    "campaign_manifest",
    "experiment_specs",
    "run_all",
    "select_experiments",
    "summary_lines",
]

_LOGGER = obs_log.get_logger("experiments")


def experiment_specs(trace, quick=False, sim_frames=None):
    """The full suite as ordered ``ExperimentSpec`` entries.

    Each spec's thunk closes over ``trace`` and the scale parameters;
    the experiments are deterministic functions of the trace, so the
    supervisor's per-attempt seed is accepted and ignored.
    """
    if sim_frames is None:
        sim_frames = 20_000 if quick else 60_000

    def spec(experiment_id, fn, *args, **kwargs):
        return ExperimentSpec(experiment_id, lambda seed: fn(*args, **kwargs))

    return [
        spec("table1", table1.run, trace),
        spec("table1_codec", table1.run_codec, n_frames=8 if quick else 48),
        spec("table2", table2.run, trace),
        spec("table3", table3.run, trace),
        spec("fig01", fig01_timeseries.run, trace),
        spec("fig02", fig02_lowfreq.run, trace),
        spec("fig03", fig03_segments.run, trace),
        spec("fig04", fig04_ccdf.run, trace),
        spec("fig05", fig05_lefttail.run, trace),
        spec("fig06", fig06_density.run, trace),
        spec("fig07", fig07_acf.run, trace),
        spec("fig08", fig08_periodogram.run, trace),
        spec("fig09", fig09_confidence.run, trace),
        spec("fig10", fig10_selfsimilar.run, trace),
        spec("fig11", fig11_variance_time.run, trace),
        spec("fig12", fig12_pox.run, trace),
        spec("fig13", fig13_system.run, trace, n_frames=min(sim_frames, 20_000)),
        spec(
            "fig14", fig14_qc.run, trace,
            n_frames=sim_frames,
            specs=(("overall", 0.0), ("overall", 1e-4), ("wes", 1e-3))
            if quick else fig14_qc.DEFAULT_SPECS,
            n_points=6 if quick else 10,
        ),
        spec(
            "fig15", fig15_smg.run, trace,
            n_frames=sim_frames,
            loss_targets=(0.0, 1e-3) if quick else (0.0, 1e-4, 1e-3),
        ),
        spec("fig16", fig16_model_vs_trace.run, trace,
             n_frames=sim_frames, n_buffers=6 if quick else 10),
        spec("fig17", fig17_loss_process.run, trace, n_frames=sim_frames),
        spec(
            "fig_net_tandem", fig_net_tandem.run, trace,
            n_frames=min(sim_frames, 4_000),
            n_points=4 if quick else 5,
        ),
        spec(
            "fig_net_hurst_hops", fig_net_hurst_hops.run, trace,
            n_frames=min(sim_frames, 8_000),
        ),
        spec(
            "fig_alloc_compare", fig_alloc_compare.run, trace,
            n_users=24 if quick else 48,
            n_epochs=16 if quick else 40,
            epoch_slots=80 if quick else 100,
        ),
        spec(
            "fig_alloc_smg", fig_alloc_smg.run, trace,
            n_users=8 if quick else 16,
            total_slots=900 if quick else 2_400,
        ),
    ]


def select_experiments(specs, only):
    """``specs`` restricted to the id(s) in ``only``, in declared order.

    ``only`` is ``None`` (everything), one id string, or an iterable of
    ids; an unknown id raises ``ValueError``.
    """
    if only is None:
        return list(specs)
    wanted = {only} if isinstance(only, str) else set(only)
    known = {spec.experiment_id for spec in specs}
    missing = sorted(wanted - known)
    if missing:
        raise ValueError(f"unknown experiment id(s) {missing}; known: {sorted(known)}")
    return [spec for spec in specs if spec.experiment_id in wanted]


def campaign_manifest(trace, quick, sim_frames):
    """Fingerprint of a campaign's configuration for checkpoint safety.

    Resuming a checkpoint directory written under a different trace or
    scale would silently mix incompatible results; the manifest (trace
    content hash + scale parameters) makes that a hard error instead.
    """
    return {
        "quick": bool(quick),
        "sim_frames": int(sim_frames) if sim_frames is not None else None,
        "n_frames": int(trace.n_frames),
        "trace_sha256": hashlib.sha256(trace.frame_bytes.tobytes()).hexdigest()[:16],
    }


def run_all(trace=None, quick=False, sim_frames=None, *, only=None,
            checkpoint_dir=None, resume=True, max_retries=0, timeout_s=None,
            base_seed=0, report=False, sleep=time.sleep, on_event=None,
            workers=1, nodes=None, lease_s=None, authkey=None,
            flight_path=None):
    """Execute every experiment; returns ``{experiment_id: result}``.

    ``quick=True`` truncates the trace to 40,000 frames and shrinks the
    simulation workloads, for smoke runs; the default runs analysis
    experiments on the full two-hour trace and simulations on 60,000
    frames (override with ``sim_frames``).  ``only`` restricts the suite
    to the named experiment id(s), keeping their declared order.

    The suite runs under the :mod:`repro.resilience` supervisor on
    ``workers`` local threads, or on worker ``nodes`` (``"sim:3"`` or
    ``"host:port,..."``, with the node-only ``lease_s`` and ``authkey``;
    see :func:`repro.dist.coordinator.run_distributed`).  Workers
    rebuild the reference trace, so ``nodes`` takes no custom ``trace``.
    Every other keyword means the same on both transports:
    ``checkpoint_dir``/``resume`` (a directory written by one resumes
    under the other), ``max_retries``/``timeout_s``/``base_seed``
    (see :func:`repro.resilience.runner.run_campaign`), ``on_event``
    (``fn(kind, experiment_id, detail)``) and ``flight_path``; ``sleep``
    only waits out in-process backoffs.  Results, records and
    checkpoint digests are identical at every worker and node count.
    ``report=True`` returns the full
    :class:`~repro.resilience.runner.CampaignReport`; without it the
    first terminal failure raises (on nodes as a ``DistError``).
    """
    if nodes is not None and trace is not None:
        raise ValueError(
            "nodes= distributes against the deterministic reference "
            "trace; a custom in-memory trace cannot cross the wire"
        )
    if trace is None:
        trace = reference_trace(n_frames=40_000 if quick else 171_000)
    specs = select_experiments(
        experiment_specs(trace, quick=quick, sim_frames=sim_frames), only
    )
    _LOGGER.info(
        "running %d experiment(s) on %s (quick=%s, sim_frames=%s, n_frames=%d)",
        len(specs), nodes or f"{workers} local worker(s)", quick, sim_frames,
        trace.n_frames,
        extra={"experiments": len(specs), "quick": bool(quick)},
    )
    supervisor = dict(
        base_seed=base_seed,
        max_retries=max_retries,
        timeout_s=timeout_s,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        manifest=campaign_manifest(trace, quick, sim_frames),
        sleep=sleep,
        on_event=on_event,
        flight_path=flight_path,
    )
    if nodes is None:
        campaign = run_campaign(specs, workers=workers, fail_fast=not report,
                                **supervisor)
    else:
        from repro.dist.campaign import experiment_tasks, open_endpoints
        from repro.dist.coordinator import DistError, run_distributed

        tasks = experiment_tasks(specs, quick=quick, sim_frames=sim_frames,
                                 trace_frames=trace.n_frames)
        with open_endpoints(nodes, authkey=authkey) as endpoints:
            campaign = run_distributed(tasks, endpoints, lease_s=lease_s,
                                       **supervisor)
        if not report and campaign.failures:
            raise DistError(campaign.failures[0].describe())
    return campaign if report else campaign.results


def summary_lines(results):
    """One line per summary label: every paper claim whose experiment ran.

    Each claim of :data:`repro.experiments.claims.CLAIMS` renders as
    its measured value, relation, paper value and ``ok``/``FAIL``;
    experiments missing from ``results`` are left out.
    """
    # Imported here: running the campaign never needs the ledger, so it
    # stays out of run_all's set-up time and memory.
    from repro.experiments.claims import check_claims, describe

    lines = {}
    for claim, value, ok in check_claims(results):
        lines.setdefault(claim.label, []).append(describe(claim, value, ok))
    return [f"{label}: " + "; ".join(parts) for label, parts in lines.items()]
