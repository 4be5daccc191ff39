"""Connection admission control for VBR video sources.

The operator-facing inverse of Fig. 15's question: given a link of
capacity ``C`` with buffer ``Q`` and a loss target, *how many* VBR
video sources can be admitted?  Because the draw-averaged loss is
monotone non-decreasing in the number of multiplexed sources, the
answer is found by a doubling search followed by bisection, using the
same trace-driven machinery as the Q-C experiments.

Also provided: the Norros-formula admission count (closed form from
the fBm model) for comparison with the simulated answer -- effective-
bandwidth-style admission against trace-driven truth.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    as_1d_float_array,
    require_in_open_interval,
    require_nonnegative,
    require_positive,
)
from repro.simulation.multiplex import lagged_arrival_sets
from repro.simulation.qc import _mean_loss
from repro.simulation.queue import max_backlog

__all__ = ["max_admissible_sources", "norros_admissible_sources"]


def _n_feasible(series, n, capacity, buffer_bytes, target_loss, metric,
                slots_per_second, n_lag_draws, rng):
    """Whether ``n`` multiplexed copies meet the loss target."""
    if n > 1 and series.size < 2 * n:
        # Too few slots to place n lagged copies: feasibility is
        # simply unanswerable, and returning False here would let a
        # short trace masquerade as an admission bound.
        raise ValueError(
            f"series too short to multiplex {n} sources: need at "
            f"least {2 * n} slots, got {series.size}"
        )
    min_sep = min(1000, series.size // (2 * n))
    arrival_sets = lagged_arrival_sets(series, n, n_lag_draws, min_sep, rng)
    if target_loss == 0:
        return all(max_backlog(a, capacity) <= buffer_bytes for a in arrival_sets)
    return _mean_loss(arrival_sets, capacity, buffer_bytes, metric, slots_per_second) <= target_loss


def max_admissible_sources(
    series,
    slot_seconds,
    capacity_bps,
    buffer_bytes,
    target_loss=1e-4,
    metric="overall",
    n_lag_draws=3,
    rng=None,
    n_max=4096,
):
    """Largest N such that N multiplexed sources meet the loss target.

    Parameters
    ----------
    series:
        Single-source bytes per slot.
    slot_seconds:
        Slot duration in seconds.
    capacity_bps:
        Link capacity in bits per second.
    buffer_bytes:
        Shared buffer in bytes.
    target_loss:
        Loss-rate bound (0 for lossless).
    metric:
        ``"overall"`` or ``"wes"``.
    n_lag_draws:
        Lag combinations averaged per candidate N.

    Returns 0 when even one source violates the target.
    """
    arr = as_1d_float_array(series, "series")
    slot_seconds = require_positive(slot_seconds, "slot_seconds")
    capacity_bps = require_positive(capacity_bps, "capacity_bps")
    buffer_bytes = require_nonnegative(buffer_bytes, "buffer_bytes")
    target_loss = require_nonnegative(target_loss, "target_loss")
    if rng is None:
        rng = np.random.default_rng()
    capacity = capacity_bps / 8.0 * slot_seconds  # bytes per slot
    slots_per_second = max(int(round(1.0 / slot_seconds)), 1)
    mean = float(np.mean(arr))
    if mean <= 0:
        raise ValueError("series must have positive mean")
    # Stability bound: more sources than capacity/mean can never fit.
    # The trace-length bound keeps the search inside what
    # ``_n_feasible`` can actually answer (n lagged copies need at
    # least 2n slots).
    n_cap = min(int(capacity / mean) + 1, n_max, max(arr.size // 2, 1))
    if n_cap < 1 or not _n_feasible(
        arr, 1, capacity, buffer_bytes, target_loss, metric, slots_per_second, n_lag_draws, rng
    ):
        return 0
    lo = 1
    hi = 1
    while hi < n_cap:
        hi = min(hi * 2, n_cap)
        if not _n_feasible(
            arr, hi, capacity, buffer_bytes, target_loss, metric,
            slots_per_second, n_lag_draws, rng,
        ):
            break
        lo = hi
    else:
        return lo
    # Invariant: lo feasible, hi infeasible.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _n_feasible(
            arr, mid, capacity, buffer_bytes, target_loss, metric,
            slots_per_second, n_lag_draws, rng,
        ):
            lo = mid
        else:
            hi = mid
    return lo


def norros_admissible_sources(
    mean_rate, variance_coeff, hurst, capacity_bps, buffer_bytes, target_loss, slot_seconds
):
    """Closed-form admission count from Norros' fBm model.

    With N homogeneous sources the aggregate has mean ``N m`` and
    variance coefficient ``a`` unchanged (variances add, so
    ``a_N = N a m / (N m) = a``); the admission bound solves
    ``norros_capacity(N m, a, b, eps, H) <= C`` for the largest integer
    N.  All rates in the same units as the simulation API
    (``capacity_bps`` in bits/second, the rest per slot).
    """
    from repro.simulation.norros import norros_capacity

    m = require_positive(mean_rate, "mean_rate")
    a = require_positive(variance_coeff, "variance_coeff")
    hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    b = require_positive(buffer_bytes, "buffer_bytes")
    eps = require_in_open_interval(target_loss, "target_loss", 0.0, 1.0)
    slot_seconds = require_positive(slot_seconds, "slot_seconds")
    capacity = require_positive(capacity_bps, "capacity_bps") / 8.0 * slot_seconds
    n = 0
    while norros_capacity((n + 1) * m, a, b, eps, hurst) <= capacity:
        n += 1
        if n > 10**6:  # pragma: no cover - defensive
            break
    return n
