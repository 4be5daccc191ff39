"""Fig. 10: self-similarity of VBR video under aggregation.

Aggregating an SRD process over blocks of 100-1000 yields essentially
white noise; the VBR trace instead retains significant and
similar-looking correlations at every level.  ``run`` returns the
aggregated series and their lag-1..k autocorrelations, plus a white-
noise significance threshold so "significant correlations remain" is a
checkable statement.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.correlation import aggregate, autocorrelation
from repro.experiments.data import reference_trace

__all__ = ["run"]


BLOCK_SIZES = (100, 500, 1000)
ACF_LAGS = 20


def run(trace=None):
    """Aggregated series plus their short-lag ACFs.

    Returns ``{"levels": {m: {"series", "acf", "significant_lags"}},
    "acf_lags": 20}`` for the block sizes ``m`` of :data:`BLOCK_SIZES`,
    where ``significant_lags`` counts lags whose autocorrelation
    exceeds the 95% white-noise band ``1.96/sqrt(n)``.
    """
    if trace is None:
        trace = reference_trace()
    x = trace.frame_bytes
    # Keep only block sizes that leave enough points for the ACF --
    # short traces silently drop the largest levels.
    usable = [m for m in BLOCK_SIZES if x.size // m >= ACF_LAGS + 2]
    if not usable:
        raise ValueError(
            f"no block size in {BLOCK_SIZES} leaves {ACF_LAGS + 2} points "
            f"for a {x.size}-frame trace"
        )
    levels = {}
    for m in usable:
        agg = aggregate(x, m)
        acf = autocorrelation(agg, max_lag=ACF_LAGS)
        threshold = 1.96 / np.sqrt(agg.size)
        levels[m] = {
            "series": agg,
            "acf": acf,
            "white_noise_threshold": threshold,
            "significant_lags": int(np.sum(np.abs(acf[1:]) > threshold)),
        }
    return {"levels": levels, "acf_lags": ACF_LAGS}
