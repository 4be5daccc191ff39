"""The paper-claim ledger: each quantitative claim declared once.

A :class:`Claim` is one check on one experiment's result: what is
measured (a small accessor on the result dict), the paper's value (read
from the experiment's own constant, never retyped), the relation the
measurement must satisfy, and the paper section it comes from.
``CLAIMS`` lists every claim in campaign order; :func:`check_claims` is
the one loop over them.  The loop renders
:func:`repro.experiments.runner.summary_lines` and drives the ledger
tests: every claim on the quick campaign at tier 1, and on the full
campaign at tier 3.

A claim that cannot hold on the quick campaign's 40,000-frame trace is
``full_only``; its threshold is never loosened to make it hold there.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from repro.experiments import fig11_variance_time, fig12_pox, fig15_smg, table1, table2, table3

__all__ = ["Claim", "CLAIMS", "check_claims", "describe"]


@dataclasses.dataclass(frozen=True)
class Claim:
    """One paper claim: ``measure(result) <relation> threshold``."""

    id: str
    experiment: str
    section: str
    label: str
    measure: Callable[[dict], Any]
    relation: str
    threshold: Any
    paper: Any = None
    full_only: bool = False

    @property
    def name(self):
        return self.id.split(".", 1)[1]

    def holds(self, value):
        return bool(_RELATIONS[self.relation](value, self.threshold, self.paper))


_RELATIONS = {
    "<": lambda v, t, p: v < t,
    "<=": lambda v, t, p: v <= t,
    ">": lambda v, t, p: v > t,
    ">=": lambda v, t, p: v >= t,
    "==": lambda v, t, p: v == t,
    "in": lambda v, t, p: t[0] < v < t[1],
    "rel": lambda v, t, p: abs(v - p) / p < t,
    "abs": lambda v, t, p: abs(v - p) < t,
}
"""``relation -> fn(value, threshold, paper)``; ``in`` is an open interval,
``rel``/``abs`` bound the relative/absolute error against the paper value."""


def _claim(name, measure, relation, threshold, *, paper=None, full_only=False):
    return Claim(name, "", "", "", measure, relation, threshold, paper, full_only)


def _line(label, experiment, section, *claims):
    """Stamp one summary line's claims with their experiment and label."""
    return tuple(
        dataclasses.replace(c, id=f"{experiment}.{c.id}", experiment=experiment,
                            section=section, label=label)
        for c in claims
    )


def _capacity_at_10ms(curve):
    """Per-source capacity at the first grid point with ``T_max <= 10 ms``."""
    idx = np.searchsorted(-curve.tmax_ms, -10.0)
    return curve.capacity_per_source_mbps[min(idx, curve.tmax_ms.size - 1)]


def _knee_span(curve):
    """How many times the largest positive ``T_max`` exceeds the smallest."""
    positive = curve.tmax_ms[curve.tmax_ms > 0]
    return positive.max() / max(positive.min(), 1e-6)


def _spread(values):
    return max(values.values()) - min(values.values())


def _central_peaks(r):
    """Detected peaks between 40% and 60% of the runtime."""
    rel = np.asarray(r["peak_minutes"]) / r["duration_minutes"]
    return int(np.sum((rel > 0.4) & (rel < 0.6)))


def _offsets(r, pick):
    """Fig. 16 capacity offsets at the smallest or largest N (``pick``)."""
    return r["offsets"][pick(r["offsets"])]


def _zero_loss_smg(r):
    return r["curves"][0.0]


def _lossless_tmax(r):
    """Lossless ``T_max`` at the lowest capacity, one entry per path length."""
    return np.array([r["curves"][(h, 0.0)]["tmax_ms"][0] for h in sorted(r["hops"])])


_T1, _T2, _T3 = table1.PAPER, table2.PAPER, table3.PAPER

CLAIMS = (
    *_line(
        "Table 1", "table1", "§2, Table 1",
        _claim("avg_bandwidth_mbps", lambda r: r["avg_bandwidth_mbps"], "rel", 0.02,
               paper=_T1["avg_bandwidth_mbps"]),
        _claim("avg_compression_ratio", lambda r: r["avg_compression_ratio"], "rel", 0.02,
               paper=_T1["avg_compression_ratio"]),
        _claim("video_frames", lambda r: r["video_frames"], "==", _T1["video_frames"],
               paper=_T1["video_frames"], full_only=True),
    ),
    *_line(
        "Table 1 (codec)", "table1_codec", "§2, Table 1",
        _claim("compression_ratio", lambda r: r["avg_compression_ratio"], ">", 2.0),
        _claim("slice_data", lambda r: r["trace"].has_slice_data, "==", True),
    ),
    *_line(
        "Table 2 (frame)", "table2", "§2, Table 2",
        _claim("frame_mean", lambda r: r["frame"].mean, "rel", 0.01,
               paper=_T2["frame"]["mean"]),
        _claim("frame_std", lambda r: r["frame"].std, "rel", 0.02,
               paper=_T2["frame"]["std"]),
        _claim("frame_peak_to_mean", lambda r: r["frame"].peak_to_mean, "abs", 0.5,
               paper=_T2["frame"]["peak_to_mean"]),
    ),
    *_line(
        "Table 2 (slice)", "table2", "§2, Table 2",
        _claim("slice_mean", lambda r: r["slice"].mean, "rel", 0.01,
               paper=_T2["slice"]["mean"]),
        _claim("slice_cov", lambda r: r["slice"].coefficient_of_variation, "abs", 0.03,
               paper=_T2["slice"]["coefficient_of_variation"]),
    ),
    *_line(
        "Table 3", "table3", "§3.2.3, Table 3",
        _claim("variance_time", lambda r: r["variance_time"], "in", (0.72, 0.92),
               paper=_T3["variance_time"]),
        _claim("rs", lambda r: r["rs"], "in", (0.72, 0.92), paper=_T3["rs"]),
        _claim("rs_aggregated", lambda r: r["rs_aggregated"], "in", (0.72, 0.95),
               paper=_T3["rs_aggregated"]),
        _claim("rs_varied_spread", lambda r: r["rs_varied"][1] - r["rs_varied"][0], "<", 0.12,
               paper=_T3["rs_varied"][1] - _T3["rs_varied"][0]),
        _claim("whittle_ci_width", lambda r: r["whittle"].ci_high - r["whittle"].ci_low,
               "<", 0.3, paper=2 * _T3["whittle_ci_halfwidth"]),
        _claim("estimator_spread",
               lambda r: _spread({k: r[k] for k in ("variance_time", "rs", "rs_aggregated")}),
               "<", 0.15),
    ),
    *_line(
        "Fig 1", "fig01", "§2, Fig. 1",
        _claim("duration_minutes", lambda r: r["duration_minutes"], ">", 115, full_only=True),
        _claim("central_peaks", _central_peaks, ">=", 1),
        _claim("high_minus_mean", lambda r: np.min(r["high"] - r["mean"]), ">=", 0.0),
    ),
    *_line(
        "Fig 2", "fig02", "§2, Fig. 2",
        _claim("window", lambda r: r["window"], "==", 20_000, full_only=True),
        _claim("relative_excursion", lambda r: r["relative_excursion"], ">", 0.05),
        _claim("arc_correlation", lambda r: r["arc_correlation"], ">", 0.2),
    ),
    *_line(
        "Fig 3", "fig03", "§2, Fig. 3",
        _claim("segments", lambda r: len(r["segments"]), "==", 5),
        _claim("segment_length", lambda r: r["segment_length"], "==", 2_880),
        _claim("max_mean_deviation_sigmas", lambda r: np.max(r["mean_deviation_sigmas"]),
               ">", 5.0),
    ),
    *_line(
        "Fig 4", "fig04", "§3.1, Fig. 4",
        _claim("best_tail_is_pareto",
               lambda r: r["ranking"][0] in ("pareto", "gamma_pareto"), "==", True),
        _claim("lognormal_minus_pareto",
               lambda r: r["tail_deviation"]["lognormal"] - r["tail_deviation"]["pareto"],
               ">", 0.0),
        _claim("normal_minus_pareto",
               lambda r: r["tail_deviation"]["normal"] - r["tail_deviation"]["pareto"],
               ">", 0.0),
        _claim("normal_minus_gamma",
               lambda r: r["tail_deviation"]["normal"] - r["tail_deviation"]["gamma"],
               ">", 0.0),
    ),
    *_line(
        "Fig 5", "fig05", "§3.1, Fig. 5",
        _claim("gamma_left_tail_deviation", lambda r: r["left_tail_deviation"]["gamma"],
               "<", 0.5),
        _claim("hybrid_vs_gamma_rel_diff",
               lambda r: np.max(np.abs(r["gamma_pareto"] - r["gamma"]) / np.abs(r["gamma"])),
               "<=", 1e-6),
    ),
    *_line(
        "Fig 6", "fig06", "§3.1, Fig. 6",
        _claim("l1_discrepancy", lambda r: r["l1_discrepancy"], "<", 0.05),
    ),
    *_line(
        "Fig 7", "fig07", "§3.2, Fig. 7",
        _claim("acf_lags", lambda r: r["acf"].size, "==", 10_001),
        _claim("acf_at_10000", lambda r: r["acf"][10_000], ">", 0.0),
        _claim("exp_underestimates_tail", lambda r: r["exp_underestimates_tail"], ">", 100.0,
               full_only=True),
    ),
    *_line(
        "Fig 8", "fig08", "§3.2, Fig. 8",
        _claim("alpha", lambda r: r["alpha"], ">", 0.3),
        _claim("hurst", lambda r: r["hurst"], "in", (0.65, 1.1)),
        _claim("low_to_high_intensity", lambda r: r["intensity"][0] / r["intensity"][-1],
               ">", 100),
    ),
    *_line(
        "Fig 9", "fig09", "§3.2, Fig. 9",
        _claim("iid_coverage", lambda r: r["iid_coverage"], "<", 0.6),
        _claim("lrd_minus_iid_coverage", lambda r: r["lrd_coverage"] - r["iid_coverage"],
               ">=", 0.0),
    ),
    *_line(
        "Fig 10", "fig10", "§3.2, Fig. 10",
        *(
            _claim(f"significant_lags_m{m}", lambda r, m=m: r["levels"][m]["significant_lags"],
                   ">=", 2, full_only=m == 1000)
            for m in (100, 500, 1000)
        ),
    ),
    *_line(
        "Fig 11", "fig11", "§3.2.3, Fig. 11",
        _claim("hurst", lambda r: r["hurst"], "in", (0.72, 0.9),
               paper=fig11_variance_time.PAPER_HURST),
        _claim("beta", lambda r: r["beta"], "<", 0.6),
    ),
    *_line(
        "Fig 12", "fig12", "§3.2.3, Fig. 12",
        _claim("hurst", lambda r: r["hurst"], "in", (0.72, 0.92), paper=fig12_pox.PAPER_HURST),
        _claim("hurst_above_srd", lambda r: r["hurst"] - r["srd_reference_slope"], ">", 0.2),
    ),
    *_line(
        "Fig 13", "fig13", "§5, Fig. 13",
        _claim("conservation", lambda r: r["conservation_ok"], "==", True),
        _claim("loss_rate_nonnegative", lambda r: r["loss_rate"], ">=", 0.0),
        _claim("loss_rate", lambda r: r["loss_rate"], "<", 1.0),
        _claim("capacity_mbps", lambda r: r["capacity_mbps"], ">", 0),
    ),
    *_line(
        "Fig 14", "fig14", "§5, Fig. 14",
        _claim("one_curve_per_point",
               lambda r: len(r["curves"]) == len(r["n_sources"]) * len(r["specs"]), "==", True),
        _claim("knee_span", lambda r: _knee_span(r["curves"][(1, "overall", 0.0)]), ">", 100),
        _claim("strict_minus_loose_tmax",
               lambda r: np.min(r["curves"][(5, "overall", 0.0)].tmax_ms
                                - r["curves"][(5, "overall", 1e-4)].tmax_ms),
               ">=", -1e-9),
        _claim("capacity_at_10ms_n20_over_n1",
               lambda r: _capacity_at_10ms(r["curves"][(20, "overall", 0.0)])
               / _capacity_at_10ms(r["curves"][(1, "overall", 0.0)]),
               "<", 0.75),
    ),
    *_line(
        "Fig 15", "fig15", "§5, Fig. 15",
        _claim("max_capacity_step",
               lambda r: np.max(np.diff(_zero_loss_smg(r)["capacity_per_source"])), "<", 1e-9),
        _claim("n1_capacity_over_peak",
               lambda r: _zero_loss_smg(r)["capacity_per_source"][0] / _zero_loss_smg(r)["peak_rate"],
               ">", 0.75),
        _claim("n20_capacity_over_mean",
               lambda r: _zero_loss_smg(r)["capacity_per_source"][-1] / _zero_loss_smg(r)["mean_rate"],
               "<", 1.4),
        _claim("mean_gain_at_5", lambda r: r["mean_gain_at_5"], "in", (0.55, 0.95),
               paper=fig15_smg.PAPER_GAIN_AT_5),
    ),
    *_line(
        "Fig 16", "fig16", "§5, Fig. 16",
        _claim("full_minus_farima_at_n_min",
               lambda r: _offsets(r, min)["full-model"] - _offsets(r, min)["gaussian-farima"],
               "<=", 0.0),
        _claim("full_minus_iid_at_n_min",
               lambda r: _offsets(r, min)["full-model"] - _offsets(r, min)["iid-gamma-pareto"],
               "<=", 0.05),
        _claim("full_offset_rise_with_n",
               lambda r: _offsets(r, max)["full-model"] - _offsets(r, min)["full-model"],
               "<=", 0.02),
        _claim("spread_rise_with_n",
               lambda r: _spread(_offsets(r, max)) - _spread(_offsets(r, min)),
               "<", 0.05),
    ),
    *_line(
        "Fig 17", "fig17", "§5, Fig. 17",
        *(
            _claim(f"n{n}_loss_over_target",
                   lambda r, n=n: r["processes"][n]["overall_loss"] / r["target_loss"], "<=", 1.5)
            for n in (1, 20)
        ),
        _claim("concentration_n1_over_n20",
               lambda r: r["processes"][1]["concentration"] / r["processes"][20]["concentration"],
               ">", 2),
        _claim("capacity_n20_over_n1",
               lambda r: r["processes"][20]["capacity_per_source"]
               / r["processes"][1]["capacity_per_source"],
               "<", 1),
    ),
    *_line(
        "Net tandem", "fig_net_tandem", "§5 (extension)",
        _claim("min_lossless_tmax_rise_per_hop_ms",
               lambda r: np.min(np.diff(_lossless_tmax(r))), ">", 0.0),
    ),
    *_line(
        "Net Hurst/hops", "fig_net_hurst_hops", "§3.2.3 (extension)",
        _claim("max_hurst_drift_from_first_hop",
               lambda r: np.max(np.abs(r["hurst_variance_time"] - r["hurst_variance_time"][0])),
               "<", 0.03),
    ),
    *_line(
        "Alloc compare", "fig_alloc_compare", "§5 (extension)",
        _claim("oracle_is_lower_bound", lambda r: r["oracle_is_lower_bound"], "==", True),
    ),
    *_line(
        "Alloc SMG", "fig_alloc_smg", "§5 (extension)",
        _claim("best_gain_vs_static", lambda r: max(r["gain_vs_static"].values()), ">", 1.0),
    ),
)
"""Every claim, in campaign order."""


def check_claims(results):
    """Yield ``(claim, value, ok)`` for every claim whose experiment ran."""
    for claim in CLAIMS:
        if claim.experiment in results:
            value = claim.measure(results[claim.experiment])
            yield claim, value, claim.holds(value)


def _fmt(value):
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_fmt, value)) + ")"
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    value = float(value)
    return f"{value:.0f}" if 1e3 <= abs(value) < 1e6 else f"{value:.3g}"


def describe(claim, value, ok):
    """``name value <relation> [paper p] ok|FAIL`` for one checked claim."""
    relation = {"rel": "rel. err <", "abs": "abs. err <"}.get(claim.relation, claim.relation)
    paper = "" if claim.paper is None else f" [paper {_fmt(claim.paper)}]"
    verdict = "ok" if ok else "FAIL (full scale only)" if claim.full_only else "FAIL"
    return f"{claim.name} {_fmt(value)} {relation} {_fmt(claim.threshold)}{paper} {verdict}"
