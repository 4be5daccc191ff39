"""Fig. 3: bandwidth distributions of five two-minute segments vs full.

Two minutes is long compared to queueing time scales yet short compared
to the trace; the paper's point is that per-segment distributions
deviate substantially from the long-term marginal.  ``run`` quantifies
the deviation of each segment's mean from the global mean -- far larger
than i.i.d. sampling would allow (the LRD theme of Fig. 9).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.marginals import segment_histograms
from repro.experiments.data import reference_trace

__all__ = ["run"]


def run(trace=None, n_segments=5, n_bins=60):
    """Segment and full-trace histograms plus mean-deviation stats.

    Returns the dict of
    :func:`repro.analysis.marginals.segment_histograms` augmented with
    ``"segment_means"``, ``"global_mean"`` and
    ``"mean_deviation_sigmas"`` -- each segment mean's distance from
    the global mean in units of the i.i.d. standard error (values well
    above ~2 demonstrate the failure of i.i.d. reasoning).
    """
    if trace is None:
        trace = reference_trace()
    x = trace.frame_bytes
    segment_length = min(int(2.0 * 60 * trace.frame_rate), max(x.size // 2, 10))
    result = segment_histograms(x, n_segments=n_segments, segment_length=segment_length, n_bins=n_bins)
    means = []
    for start, _, _ in result["segments"]:
        means.append(float(np.mean(x[start : start + segment_length])))
    global_mean = float(np.mean(x))
    iid_se = float(np.std(x, ddof=0)) / np.sqrt(segment_length)
    result["segment_length"] = segment_length
    result["segment_means"] = np.asarray(means)
    result["global_mean"] = global_mean
    result["mean_deviation_sigmas"] = np.abs(np.asarray(means) - global_mean) / iid_se
    return result
