"""Run the complete experiment suite and summarize measured vs paper.

``experiment_specs`` declares the suite as an ordered list of
:class:`~repro.resilience.runner.ExperimentSpec`; ``run_all`` drives it
through the :mod:`repro.resilience` campaign supervisor (per-experiment
isolation, bounded retry, soft timeouts, checkpoint/resume) -- on local
threads or on worker nodes -- and returns a dict of results;
``summary_lines`` renders the
one-line-per-experiment comparison used by EXPERIMENTS.md and the
examples.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

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
    """One human-readable comparison line per experiment."""
    lines = []
    t1 = results["table1"]
    lines.append(
        f"Table 1: avg bandwidth {t1['avg_bandwidth_mbps']:.2f} Mb/s "
        f"(paper {t1['paper']['avg_bandwidth_mbps']:.2f}); compression ratio "
        f"{t1['avg_compression_ratio']:.2f} (paper {t1['paper']['avg_compression_ratio']:.2f})"
    )
    t2 = results["table2"]
    fr, pf = t2["frame"], t2["paper"]["frame"]
    lines.append(
        f"Table 2 (frame): mean {fr.mean:.0f} (paper {pf['mean']:.0f}), "
        f"std {fr.std:.0f} (paper {pf['std']:.0f}), peak/mean {fr.peak_to_mean:.2f} "
        f"(paper {pf['peak_to_mean']:.2f})"
    )
    sl, ps = t2["slice"], t2["paper"]["slice"]
    lines.append(
        f"Table 2 (slice): mean {sl.mean:.0f} (paper {ps['mean']:.0f}), "
        f"CoV {sl.coefficient_of_variation:.2f} (paper {ps['coefficient_of_variation']:.2f})"
    )
    t3 = results["table3"]
    lines.append(
        f"Table 3: VT H={t3['variance_time']:.2f} (paper 0.78), R/S H={t3['rs']:.2f} "
        f"(paper 0.83), Whittle H={t3['whittle'].hurst:.2f}±{1.96 * t3['whittle'].std_error:.2f} "
        f"(paper 0.80±0.088)"
    )
    lines.append(
        f"Fig 2: moving-average relative excursion {results['fig02']['relative_excursion']:.2f}, "
        f"arc correlation {results['fig02']['arc_correlation']:.2f}"
    )
    lines.append(
        f"Fig 3: segment means deviate {np.max(results['fig03']['mean_deviation_sigmas']):.0f} "
        f"i.i.d. sigmas from global mean (i.i.d. bound ~2)"
    )
    dev = results["fig04"]["tail_deviation"]
    lines.append(
        "Fig 4: tail log-deviation pareto={pareto:.2f} < gamma={gamma:.2f} < "
        "lognormal={lognormal:.2f}, normal={normal:.2f}".format(**dev)
    )
    lines.append(
        f"Fig 5: left-tail gamma deviation {results['fig05']['left_tail_deviation']['gamma']:.3f} "
        f"(adequate fit, as in paper)"
    )
    lines.append(f"Fig 6: density L1 discrepancy {results['fig06']['l1_discrepancy']:.3f}")
    f7 = results["fig07"]
    lines.append(
        f"Fig 7: ACF exponential fit rho={f7['rho']:.3f} holds only at short lags; measured "
        f"ACF exceeds exponential extrapolation by x{f7['exp_underestimates_tail']:.0f} at lag 3000"
    )
    f8 = results["fig08"]
    lines.append(f"Fig 8: periodogram low-frequency alpha={f8['alpha']:.2f} -> H={f8['hurst']:.2f}")
    f9 = results["fig09"]
    lines.append(
        f"Fig 9: i.i.d. CI coverage {f9['iid_coverage']:.2f} vs LRD coverage {f9['lrd_coverage']:.2f}"
    )
    f10 = results["fig10"]["levels"]
    sig = {m: v["significant_lags"] for m, v in f10.items()}
    lines.append(f"Fig 10: significant ACF lags after aggregation {sig} (SRD would give ~0-1)")
    lines.append(
        f"Fig 11: variance-time H={results['fig11']['hurst']:.2f} (paper 0.78)"
    )
    lines.append(f"Fig 12: R/S pox H={results['fig12']['hurst']:.2f} (paper 0.83)")
    knees = results["fig14"]["knees"]
    some_key = next(iter(knees))
    lines.append(
        f"Fig 14: {len(results['fig14']['curves'])} Q-C curves computed; e.g. knee of "
        f"{some_key}: C/N={knees[some_key][0]:.1f} Mb/s at T_max={knees[some_key][1]:.2f} ms"
    )
    f15 = results["fig15"]
    lines.append(
        f"Fig 15: gain at N=5 = {f15['mean_gain_at_5']:.2f} (paper {f15['paper_gain_at_5']:.2f})"
    )
    f16 = results["fig16"]
    n_max = max(f16["offsets"])
    n_min = min(f16["offsets"])
    lines.append(
        f"Fig 16: capacity offsets vs trace at N={n_min}: "
        + ", ".join(f"{k}={v:.3f}" for k, v in sorted(f16["offsets"][n_min].items()))
        + f"; at N={n_max}: "
        + ", ".join(f"{k}={v:.3f}" for k, v in sorted(f16["offsets"][n_max].items()))
    )
    f17 = results["fig17"]["processes"]
    lines.append(
        "Fig 17: loss concentration "
        + ", ".join(f"N={n}: {v['concentration']:.2f}" for n, v in sorted(f17.items()))
        + " (same overall loss, very different error processes)"
    )
    tandem = results["fig_net_tandem"]
    lossless = {
        h: tandem["curves"][(h, 0.0)]["tmax_ms"][0] for h in tandem["hops"]
    }
    lines.append(
        "Net tandem: lossless T_max at the lowest capacity grows with path "
        "length: " + ", ".join(f"{h} hop(s)={v:.0f} ms" for h, v in sorted(lossless.items()))
    )
    hh = results["fig_net_hurst_hops"]
    lines.append(
        "Net Hurst/hops: variance-time H "
        + " -> ".join(f"{v:.2f}" for v in hh["hurst_variance_time"])
        + f" across {hh['hops']} hops (self-similarity survives queueing)"
    )
    ac = results["fig_alloc_compare"]
    lines.append(
        "Alloc compare: p99 per-user loss static={static:.3f} -> trade={trade:.3f} "
        "-> harvest={harvest:.3f} -> oracle={oracle:.3f}".format(**ac["p99_loss"])
        + (" (oracle is the lower bound)" if ac["oracle_is_lower_bound"] else "")
    )
    asg = results["fig_alloc_smg"]
    best = max(asg["gain_vs_static"].items(), key=lambda kv: kv[1])
    lines.append(
        f"Alloc SMG: closed-loop harvest needs x{best[1]:.2f} less pool capacity "
        f"than the static partition at epoch length {best[0]} "
        f"(Norros anchor {asg['capacity_norros']:.0f} bytes/slot)"
    )
    return lines
