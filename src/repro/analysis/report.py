"""One-call statistical report for a VBR trace.

Combines everything Section 3 of the paper does -- summary statistics,
marginal model comparison, the full Hurst-estimator panel, honest
confidence intervals and the stationarity verdict -- into a single
structured object with a formatted text rendering.  This is what the
CLI's ``report`` command and downstream users get as the library's
"tell me about this trace" entry point.  The panel's Table 3 rows are
:func:`repro.analysis.hurst.hurst_summary`'s, so the report prints the
same variance-time, R/S and Whittle values as Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_1d_float_array

__all__ = ["TraceReport", "analyze_trace"]


@dataclass(frozen=True)
class TraceReport:
    """Everything Section 3 of the paper says about one trace."""

    summary: object
    """The :class:`~repro.analysis.summary.TraceSummary`."""

    marginal: object
    """The fitted :class:`~repro.distributions.hybrid.GammaParetoHybrid`."""

    tail_ranking: list
    """Candidate models sorted by right-tail fit (best first)."""

    hurst_estimates: dict = field(repr=False)
    """``{estimator_name: H}`` over the full panel."""

    whittle: object = field(repr=False)
    """The panel's :class:`~repro.analysis.hurst.WhittleResult`."""

    hurst: float
    """Consensus H (median of the panel)."""

    mean_ci_halfwidth: float
    """LRD-honest 95% CI half-width for the mean rate."""

    stationarity: object = field(repr=False)
    """The :class:`~repro.analysis.stationarity.StationarityReport`."""

    is_lrd: bool
    """Whether the consensus H exceeds 0.6 (clearly long-range dependent)."""

    def format(self):
        """Human-readable multi-paragraph report."""
        from repro.experiments.reporting import format_kv, format_table

        lines = [format_kv(self.summary.format_rows(), title="Summary statistics:")]
        lines.append("")
        lines.append(f"Marginal model: {self.marginal!r}")
        lines.append("Tail ranking (best first): " + ", ".join(self.tail_ranking))
        lines.append("")
        whittle_ci = f" ± {1.96 * self.whittle.std_error:.3f}"
        rows = [
            [name, f"{h:.3f}" + (whittle_ci if name.startswith("Whittle") else "")]
            for name, h in self.hurst_estimates.items()
        ]
        lines.append(format_table(["estimator", "H"], rows, title="Hurst panel:"))
        lines.append("")
        lines.append(
            f"Consensus H = {self.hurst:.2f}; mean rate 95% CI half-width "
            f"(LRD-honest) = {self.mean_ci_halfwidth:.0f} bytes/slot."
        )
        s = self.stationarity
        lines.append(
            f"Stationarity: segment means wander {s.iid_ratio:.1f}x the i.i.d. "
            f"prediction but {s.lrd_ratio:.2f}x the stationary-LRD prediction"
            + (" -- stationary LRD explains the data." if s.lrd_explains_dispersion
               else " -- inspect for genuine non-stationarity.")
        )
        verdict = (
            "VERDICT: long-range dependent, heavy-tailed traffic; use LRD-aware "
            "models and resource allocation."
            if self.is_lrd
            else "VERDICT: no strong long-range dependence detected."
        )
        lines.append(verdict)
        return "\n".join(lines)


def analyze_trace(trace_or_series, time_unit_ms=1000.0 / 24.0, tail_fraction=0.03):
    """Run the complete Section 3 analysis battery on a trace.

    Accepts a :class:`~repro.video.trace.VBRTrace` (frame resolution is
    analysed) or a plain series with an explicit ``time_unit_ms``.
    Returns a :class:`TraceReport`.
    """
    from repro.analysis.confidence import lrd_mean_ci
    from repro.analysis.dispersion import index_of_dispersion
    from repro.analysis.hurst import default_whittle_m, gph, hurst_summary
    from repro.analysis.stationarity import lrd_stationarity_check
    from repro.analysis.summary import summarize
    from repro.analysis.wavelet import wavelet_hurst
    from repro.experiments.fig04_ccdf import run as ccdf_run
    from repro.video.trace import VBRTrace

    if isinstance(trace_or_series, VBRTrace):
        x = trace_or_series.frame_bytes
        time_unit_ms = trace_or_series.frame_interval_ms
        trace = trace_or_series
    else:
        x = as_1d_float_array(trace_or_series, "series", min_length=1000)
        trace = VBRTrace(x, frame_rate=1000.0 / time_unit_ms)
    summary = summarize(x, time_unit_ms)
    ccdf = ccdf_run(trace, tail_fraction=tail_fraction)
    whittle_m = default_whittle_m(x.size)
    table3 = hurst_summary(x, whittle_m=whittle_m)
    estimates = {
        "variance-time": table3["variance_time"],
        "R/S": table3["rs"],
        "R/S aggregated": table3["rs_aggregated"],
        f"Whittle (m={whittle_m})": table3["whittle"].hurst,
        "GPH": gph(x).hurst,
        "IDC": index_of_dispersion(x).hurst,
        "wavelet": wavelet_hurst(x).hurst,
    }
    consensus = float(np.median(list(estimates.values())))
    h_for_ci = float(np.clip(consensus, 0.51, 0.97))
    _, halfwidth = lrd_mean_ci(x, h_for_ci)
    stationarity = lrd_stationarity_check(x, h_for_ci)
    return TraceReport(
        summary=summary,
        marginal=ccdf["models"]["gamma_pareto"],
        tail_ranking=list(ccdf["ranking"]),
        hurst_estimates=estimates,
        whittle=table3["whittle"],
        hurst=consensus,
        mean_ci_halfwidth=float(halfwidth),
        stationarity=stationarity,
        is_lrd=consensus > 0.6,
    )
