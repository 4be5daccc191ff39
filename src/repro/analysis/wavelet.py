"""Wavelet (Abry-Veitch style) Hurst estimation with Haar wavelets.

The wavelet energy of an LRD process scales across octaves: if
``d_{j,k}`` are the detail coefficients at octave ``j`` then

    ``E[d_j^2] ~ 2^{j (2H - 1)}``

so regressing ``log2`` of the per-octave mean energy on ``j`` yields
``H``.  The estimator is naturally robust to polynomial trends (the
Haar wavelet has one vanishing moment, killing constants) and to
short-range structure (fit over the coarse octaves only), making it a
strong cross-check on the variance-time, R/S and Whittle estimates of
Table 3.  The Haar transform is implemented directly -- no wavelet
library required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_1d_float_array

__all__ = ["WaveletResult", "haar_detail_energy", "wavelet_hurst"]


@dataclass(frozen=True)
class WaveletResult:
    """Outcome of a wavelet-energy Hurst estimation."""

    hurst: float
    """Estimated Hurst parameter ``(slope + 1) / 2``."""

    slope: float
    """Fitted log2-energy slope across octaves (``2H - 1`` for FGN)."""

    octaves: np.ndarray = field(repr=False)
    """Octave indices ``j`` (1 = finest scale)."""

    energies: np.ndarray = field(repr=False)
    """Mean squared detail coefficient per octave."""

    counts: np.ndarray = field(repr=False)
    """Number of detail coefficients per octave."""

    fit_mask: np.ndarray = field(repr=False)
    """Octaves used in the regression."""


def haar_detail_energy(data, max_octaves=None):
    """Per-octave mean Haar detail energy.

    Octave ``j`` coefficients are
    ``d_{j,k} = (s_{j-1,2k} - s_{j-1,2k+1}) / sqrt(2)`` with ``s_0`` the
    data and ``s_j`` the running pairwise means scaled by ``sqrt(2)``
    (the standard orthonormal Haar pyramid).  Returns
    ``(octaves, energies, counts)``.
    """
    arr = as_1d_float_array(data, "data", min_length=8)
    if max_octaves is None:
        max_octaves = int(np.log2(arr.size)) - 2
    max_octaves = max(int(max_octaves), 1)
    smooth = arr.copy()
    octaves = []
    energies = []
    counts = []
    for j in range(1, max_octaves + 1):
        n_pairs = smooth.size // 2
        if n_pairs < 2:
            break
        pairs = smooth[: 2 * n_pairs].reshape(n_pairs, 2)
        details = (pairs[:, 0] - pairs[:, 1]) / np.sqrt(2.0)
        smooth = (pairs[:, 0] + pairs[:, 1]) / np.sqrt(2.0)
        octaves.append(j)
        energies.append(float(np.mean(details**2)))
        counts.append(int(n_pairs))
    return np.asarray(octaves), np.asarray(energies), np.asarray(counts, dtype=int)


def wavelet_hurst(data, max_octaves=None):
    """Estimate H from the Haar wavelet energy cascade.

    Parameters
    ----------
    data:
        The series (length >= 256 recommended).

    The regression of ``log2(energy_j)`` on ``j`` runs from octave 3
    (skipping the finest scales, where short-range structure lives)
    through the coarsest octave with at least 8 coefficients, weighted
    by the coefficient counts (variance of the log-energy estimate
    scales like ``1/n_j``).
    """
    arr = as_1d_float_array(data, "data", min_length=256)
    octaves, energies, counts = haar_detail_energy(arr, max_octaves=max_octaves)
    coarse_ok = octaves[counts >= 8]
    lo, hi = octave_range = (3, int(coarse_ok.max()) if coarse_ok.size else int(octaves.max()))
    mask = (octaves >= lo) & (octaves <= hi) & (energies > 0)
    if mask.sum() < 2:
        raise ValueError(f"fewer than 2 usable octaves in range {octave_range}")
    x = octaves[mask].astype(float)
    y = np.log2(energies[mask])
    w = counts[mask].astype(float)
    slope, _ = np.polyfit(x, y, 1, w=np.sqrt(w))
    slope = float(slope)
    return WaveletResult(
        hurst=(slope + 1.0) / 2.0,
        slope=slope,
        octaves=octaves,
        energies=energies,
        counts=counts,
        fit_mask=mask,
    )
