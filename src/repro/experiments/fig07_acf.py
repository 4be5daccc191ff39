"""Fig. 7: autocorrelation function of the video trace to lag 10,000.

The paper's observation: the ACF matches an exponential decay only up
to ~100-300 lags, then decays far more slowly (hyperbolically).
``run`` fits an exponential to the early lags and a hyperbolic power
law to the long lags and reports both, so the crossover is explicit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.correlation import autocorrelation, exponential_acf_fit
from repro.experiments.data import reference_trace

__all__ = ["run"]


def run(trace=None, max_lag=10_000):
    """ACF with exponential (short-lag) and hyperbolic (long-lag) fits.

    Returns ``"lags"``, ``"acf"``, the fitted ``"rho"`` (exponential
    base) and ``"exp_curve"``, the hyperbolic exponent ``"beta"`` with
    implied ``"hurst"`` (``H = 1 - beta/2``), and
    ``"exp_underestimates_tail"`` -- the ratio of the measured ACF to
    the exponential extrapolation at the largest hyperbolic-fit lag
    (values >> 1 show the exponential model collapsing).
    """
    if trace is None:
        trace = reference_trace()
    x = trace.frame_bytes
    max_lag = min(int(max_lag), x.size - 2)
    acf = autocorrelation(x, max_lag=max_lag)
    lags = np.arange(max_lag + 1)
    exp_lo, exp_hi = 1, 100
    exp_hi = min(exp_hi, max_lag)
    rho, exp_curve = exponential_acf_fit(acf, np.arange(exp_lo, exp_hi + 1))
    hyp_lo, hyp_hi = 300, 3000
    hyp_hi = min(hyp_hi, max_lag)
    fit_slice = np.arange(hyp_lo, hyp_hi + 1)
    positive = acf[fit_slice] > 0
    if positive.sum() >= 2:
        slope, _ = np.polyfit(
            np.log10(fit_slice[positive]), np.log10(acf[fit_slice][positive]), 1
        )
        beta = -float(slope)
    else:
        beta = float("nan")
    probe_lag = hyp_hi
    # Compute the exponential extrapolation in log space: rho**3000
    # underflows double precision long before the comparison stops
    # being meaningful.  The ratio is capped at 1e9 ("effectively
    # infinite" -- the exponential model has fully collapsed).
    log_exp_value = probe_lag * np.log(max(rho, 1e-300))
    measured = acf[probe_lag]
    if measured > 0:
        ratio = float(np.exp(min(np.log(measured) - log_exp_value, np.log(1e9))))
    else:
        ratio = 0.0
    return {
        "lags": lags,
        "acf": acf,
        "rho": rho,
        "exp_curve": exp_curve,
        "beta": beta,
        "hurst": 1.0 - beta / 2.0 if np.isfinite(beta) else float("nan"),
        "exp_underestimates_tail": ratio,
    }
