"""Statistical analysis toolkit (Section 3 of the paper).

Provides the machinery behind every analysis figure/table:

- :mod:`repro.analysis.summary` -- Table 2 style summary statistics,
- :mod:`repro.analysis.marginals` -- histograms, empirical CDF/CCDF and
  candidate-model comparisons (Figs. 3-6),
- :mod:`repro.analysis.correlation` -- autocorrelation, periodogram,
  moving averages and block aggregation (Figs. 2, 7, 8, 10),
- :mod:`repro.analysis.hurst` -- variance-time plots, R/S pox diagrams
  and Whittle's MLE for the Hurst parameter (Figs. 11-12, Table 3),
- :mod:`repro.analysis.confidence` -- i.i.d. versus LRD-aware
  confidence intervals for the sample mean (Fig. 9).
"""

from repro.analysis.summary import TraceSummary, summarize
from repro.analysis.correlation import (
    autocorrelation,
    periodogram,
    moving_average,
    aggregate,
    exponential_acf_fit,
)
from repro.analysis.hurst import (
    variance_time,
    rs_pox,
    rs_aggregated,
    rs_sensitivity,
    whittle,
    gph,
    hurst_summary,
)
from repro.analysis.confidence import mean_confidence_convergence, lrd_mean_ci
from repro.analysis.dispersion import IDCResult, index_of_dispersion
from repro.analysis.wavelet import WaveletResult, haar_detail_energy, wavelet_hurst
from repro.analysis.report import TraceReport, analyze_trace
from repro.analysis.stationarity import (
    StationarityReport,
    lrd_stationarity_check,
    segment_mean_dispersion,
)
from repro.analysis.marginals import (
    histogram_density,
    segment_histograms,
    ccdf_model_comparison,
    left_tail_comparison,
)

__all__ = [
    "TraceSummary",
    "summarize",
    "autocorrelation",
    "periodogram",
    "moving_average",
    "aggregate",
    "exponential_acf_fit",
    "variance_time",
    "rs_pox",
    "rs_aggregated",
    "rs_sensitivity",
    "whittle",
    "gph",
    "hurst_summary",
    "mean_confidence_convergence",
    "lrd_mean_ci",
    "IDCResult",
    "index_of_dispersion",
    "TraceReport",
    "analyze_trace",
    "WaveletResult",
    "haar_detail_energy",
    "wavelet_hurst",
    "StationarityReport",
    "lrd_stationarity_check",
    "segment_mean_dispersion",
    "histogram_density",
    "segment_histograms",
    "ccdf_model_comparison",
    "left_tail_comparison",
]
