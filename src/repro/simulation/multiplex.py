"""Statistical multiplexing of trace copies (Section 5.1 of the paper).

``N`` sources are formed by combining ``N`` copies of the trace offset
by random lags, each wrapping around so all frames are used once per
source.  Because long-range dependence keeps cross-correlations
significant even at long lags, the paper (i) forces the lags to be at
least 1,000 frames apart and (ii) averages results over six different
random lag combinations for ``N > 2``.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_1d_float_array, require_positive_int

__all__ = [
    "random_lags",
    "multiplex_series",
    "lagged_arrival_sets",
]


def random_lags(n_sources, n_frames, min_separation=1000, rng=None):
    """Draw source lags with pairwise circular separation constraints.

    Returns ``n_sources`` integer lags in ``[0, n_frames)`` whose
    pairwise circular distances are all at least ``min_separation``
    (the first lag is pinned to zero -- only relative offsets matter).
    Raises ``ValueError`` when the constraint is unsatisfiable
    (``n_sources * min_separation > n_frames``).

    The sampler is constructive (uniform slack plus mandatory gaps), so
    it succeeds in O(n log n) even for tightly packed configurations
    where rejection sampling would practically never terminate.
    """
    n_sources = require_positive_int(n_sources, "n_sources")
    n_frames = require_positive_int(n_frames, "n_frames")
    min_separation = int(min_separation)
    if min_separation < 0:
        raise ValueError(f"min_separation must be >= 0, got {min_separation}")
    if n_sources == 1:
        return np.zeros(1, dtype=int)
    if n_sources * min_separation > n_frames:
        raise ValueError(
            f"cannot place {n_sources} lags at least {min_separation} apart "
            f"in a {n_frames}-frame circle"
        )
    if rng is None:
        rng = np.random.default_rng()
    # Positions = sorted uniform slack + mandatory separations; every
    # consecutive gap is then >= min_separation, and the wraparound gap
    # is >= min_separation because the total slack is bounded.
    slack = n_frames - n_sources * min_separation
    offsets = np.sort(rng.integers(0, slack + 1, size=n_sources))
    positions = offsets + np.arange(n_sources) * min_separation
    return ((positions - positions[0]) % n_frames).astype(int)


def multiplex_series(series, lags):
    """Aggregate arrivals: sum of cyclically shifted copies of a series.

    ``series`` is bytes per slot for one source; each entry of ``lags``
    shifts one copy (in slots) with wraparound, and the copies are
    summed.  This is exactly the paper's construction.
    """
    arr = as_1d_float_array(series, "series")
    lags = np.asarray(lags, dtype=int)
    if lags.ndim != 1 or lags.size < 1:
        raise ValueError("lags must be a non-empty 1-D array of integers")
    out = np.zeros_like(arr)
    for lag in lags:
        _add_rolled(out, arr, -int(lag) % arr.size)
    return out


def lagged_arrival_sets(series, n_sources, n_draws, min_separation, rng):
    """``n_draws`` sums of ``n_sources`` copies under fresh :func:`random_lags`.

    ``n_sources == 1`` is one unlagged draw that takes nothing from ``rng``.
    """
    return [
        multiplex_series(series, random_lags(
            n_sources, len(series), min_separation=min_separation, rng=rng))
        for _ in range(1 if n_sources == 1 else n_draws)
    ]


def _add_rolled(out, arr, shift):
    """``out += np.roll(arr, shift)`` for ``0 <= shift < n``, without the copy.

    The two wrapped slices are added in place; every element gets the
    same add as through ``np.roll``, so the sum is the same bit for bit.
    """
    n = arr.size
    out[shift:] += arr[:n - shift]
    out[:shift] += arr[n - shift:]
