"""Fig. 8: frequency spectrum (periodogram) of the frame data.

For an LRD process the periodogram diverges like ``omega^-alpha`` as
``omega -> 0`` with ``alpha = 2H - 1``.  ``run`` returns log-binned
spectrum points (raw periodogram ordinates are wildly noisy) plus the
fitted low-frequency power-law exponent and the implied Hurst
parameter.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.correlation import periodogram
from repro.experiments.data import reference_trace

__all__ = ["run"]


def _log_bin(omega, intensity, n_bins):
    """Geometric-mean binning of periodogram ordinates on log-f axes."""
    edges = np.geomspace(omega[0], omega[-1] * (1 + 1e-12), n_bins + 1)
    idx = np.clip(np.searchsorted(edges, omega, side="right") - 1, 0, n_bins - 1)
    out_f = []
    out_i = []
    for b in range(n_bins):
        mask = idx == b
        if not np.any(mask):
            continue
        out_f.append(np.exp(np.mean(np.log(omega[mask]))))
        out_i.append(np.exp(np.mean(np.log(np.maximum(intensity[mask], 1e-300)))))
    return np.asarray(out_f), np.asarray(out_i)


def run(trace=None, n_bins=60):
    """Binned periodogram with a low-frequency power-law fit.

    Returns ``"omega"`` / ``"intensity"`` (log-binned), the raw lowest
    ordinates (``"omega_low"``, ``"intensity_low"``), the fitted
    ``"alpha"`` of the ``omega^-alpha`` divergence, and the implied
    ``"hurst"`` (``H = (alpha + 1) / 2``).
    """
    if trace is None:
        trace = reference_trace()
    omega, intensity = periodogram(trace.frame_bytes)
    binned_f, binned_i = _log_bin(omega, intensity, n_bins)
    n_low = max(int(omega.size * 0.01), 10)
    omega_low = omega[:n_low]
    intensity_low = intensity[:n_low]
    usable = intensity_low > 0
    slope, _ = np.polyfit(np.log10(omega_low[usable]), np.log10(intensity_low[usable]), 1)
    alpha = -float(slope)
    return {
        "omega": binned_f,
        "intensity": binned_i,
        "omega_low": omega_low,
        "intensity_low": intensity_low,
        "alpha": alpha,
        "hurst": (alpha + 1.0) / 2.0,
    }
