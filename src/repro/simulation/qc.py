"""Q-C resource trade-off machinery (Figs. 14-16 of the paper).

For a target quality of service (a loss-rate bound), the paper studies
the trade-off between the two network resources: buffer ``Q``
(expressed as the maximum buffer delay ``T_max = Q / (N C)``) and
capacity ``C`` (expressed per source, ``C / N``).  A "Q-C curve" plots
``T_max`` against ``C/N`` for fixed ``N`` and target loss; its strong
knee is the natural operating point.  Fixing ``T_max = 2 ms`` and
scanning ``N`` gives the statistical-multiplexing-gain curve (Fig. 15):
the per-source capacity falls from near the peak rate at ``N = 1`` to
near the mean rate by ``N = 20``.

All searches exploit monotonicity: loss is non-increasing in both
``Q`` and ``C``, so bisection applies; the zero-loss cases use the
exact O(n) drawdown analysis of :func:`repro.simulation.queue.max_backlog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import (
    as_1d_float_array,
    require_nonnegative,
    require_positive,
    require_positive_int,
)
from repro.simulation.metrics import worst_errored_second_loss
from repro.simulation.multiplex import lagged_arrival_sets
from repro.simulation.queue import (max_backlog, simulate_queue, smallest_feasible,
                                    zero_loss_capacity)

__all__ = [
    "QCCurve",
    "required_capacity",
    "required_buffer",
    "qc_curve",
    "knee_point",
    "smg_curve",
]


def _measure_loss(arrivals, capacity, buffer_bytes, metric, slots_per_second):
    """Loss according to the chosen metric for one simulation run."""
    if metric == "overall":
        return simulate_queue(arrivals, capacity, buffer_bytes).loss_rate
    if metric == "wes":
        result = simulate_queue(arrivals, capacity, buffer_bytes, return_series=True)
        return worst_errored_second_loss(result.loss_series, arrivals, slots_per_second)
    raise ValueError(f'metric must be "overall" or "wes", got {metric!r}')


def _mean_loss(arrival_sets, capacity, buffer_bytes, metric, slots_per_second):
    """Loss averaged over lag draws (the paper averages six of them)."""
    losses = [
        _measure_loss(a, capacity, buffer_bytes, metric, slots_per_second)
        for a in arrival_sets
    ]
    return float(np.mean(losses))


def required_buffer(
    arrival_sets,
    capacity,
    target_loss,
    metric="overall",
    slots_per_second=None,
    rel_tol=1e-3,
):
    """Smallest buffer ``Q`` meeting the loss target at fixed capacity.

    ``arrival_sets`` is a list of aggregate arrival series (one per lag
    draw); the loss criterion is the draw-averaged loss.  For
    ``target_loss == 0`` the answer is exact: the largest drawdown over
    all draws.  Otherwise ``Q`` is found by bisection (loss is
    monotone non-increasing in ``Q``).
    """
    arrival_sets = [as_1d_float_array(a, "arrivals") for a in arrival_sets]
    if not arrival_sets:
        raise ValueError("arrival_sets must contain at least one series")
    capacity = require_positive(capacity, "capacity")
    target_loss = require_nonnegative(target_loss, "target_loss")
    q_max = max(max_backlog(a, capacity) for a in arrival_sets)
    if target_loss == 0:
        return q_max

    def feasible(q):
        return _mean_loss(arrival_sets, capacity, q, metric, slots_per_second) <= target_loss

    if feasible(0.0):
        return 0.0
    return smallest_feasible(feasible, 0.0, q_max, rel_tol, scale=max(q_max, 1.0))


def required_capacity(
    arrival_sets,
    buffer_bytes,
    target_loss,
    metric="overall",
    slots_per_second=None,
    rel_tol=1e-4,
):
    """Smallest capacity (bytes/slot) meeting the loss target at fixed Q.

    ``target_loss == 0`` is exact for either metric: the largest
    :func:`~repro.simulation.queue.zero_loss_capacity` over the draws.
    """
    arrival_sets = [as_1d_float_array(a, "arrivals") for a in arrival_sets]
    if not arrival_sets:
        raise ValueError("arrival_sets must contain at least one series")
    buffer_bytes = require_nonnegative(buffer_bytes, "buffer_bytes")
    target_loss = require_nonnegative(target_loss, "target_loss")
    if target_loss == 0:
        return max(zero_loss_capacity(a, buffer_bytes, rel_tol=rel_tol) for a in arrival_sets)

    def feasible(c):
        return _mean_loss(arrival_sets, c, buffer_bytes, metric, slots_per_second) <= target_loss

    lo = max(float(np.mean(a)) for a in arrival_sets)
    hi = max(float(np.max(a)) for a in arrival_sets)
    if feasible(lo):
        return lo
    return smallest_feasible(feasible, lo, hi, rel_tol)


@dataclass(frozen=True)
class QCCurve:
    """One Q-C trade-off curve (a single line of Fig. 14 / 16)."""

    n_sources: int
    """Number of multiplexed sources ``N``."""

    target_loss: float
    """Loss-rate target the curve satisfies."""

    metric: str
    """``"overall"`` (``P_l``) or ``"wes"`` (``P_l_WES``)."""

    slot_seconds: float
    """Duration of one simulation slot in seconds."""

    capacity_per_source: np.ndarray = field(repr=False, default=None)
    """Allocated capacity per source, bytes per slot."""

    buffer_bytes: np.ndarray = field(repr=False, default=None)
    """Required buffer ``Q`` in bytes at each capacity."""

    tmax_ms: np.ndarray = field(repr=False, default=None)
    """Maximum buffer delay ``T_max = Q / (N C)`` in milliseconds."""

    @property
    def capacity_per_source_mbps(self):
        """Per-source capacity in megabits per second."""
        return self.capacity_per_source * 8.0 / self.slot_seconds / 1e6


def qc_curve(
    series,
    slot_seconds,
    n_sources,
    target_loss=0.0,
    metric="overall",
    n_points=12,
    n_lag_draws=6,
    min_separation=1000,
    rng=None,
):
    """Compute a Q-C curve for ``n_sources`` multiplexed copies.

    For each per-source capacity in a geometric grid from 1.01 times the
    mean rate to the peak rate, the minimum buffer meeting the loss target
    is found, and reported as ``T_max = Q / (N C)``.  Following the
    paper, ``N > 2`` uses several random lag combinations (at least
    ``min_separation`` frames apart) and averages the loss over them.

    Parameters
    ----------
    series:
        Single-source bytes-per-slot series.
    slot_seconds:
        Slot duration in seconds (frame: 1/24; slice: 1/720).
    n_sources:
        ``N``.
    target_loss:
        The loss bound (0 for the zero-loss curves).
    metric:
        ``"overall"`` or ``"wes"``.
    n_points:
        Capacity grid size.
    n_lag_draws:
        Number of random lag combinations (paper: 6; 1 is used when
        ``n_sources == 1``).
    """
    arr = as_1d_float_array(series, "series")
    slot_seconds = require_positive(slot_seconds, "slot_seconds")
    n_sources = require_positive_int(n_sources, "n_sources")
    target_loss = require_nonnegative(target_loss, "target_loss")
    if rng is None:
        rng = np.random.default_rng()
    slots_per_second = max(int(round(1.0 / slot_seconds)), 1)
    arrival_sets = lagged_arrival_sets(arr, n_sources, n_lag_draws, min_separation, rng)
    mean_rate = float(np.mean(arr))
    peak_rate = float(np.max(arr))
    capacities = np.geomspace(mean_rate * 1.01, peak_rate, n_points)
    if np.any(capacities <= 0):
        raise ValueError("capacities must be positive")
    c_totals = [float(c) * n_sources for c in capacities]
    buffers = np.asarray([
        required_buffer(arrival_sets, c_total, target_loss, metric=metric,
                        slots_per_second=slots_per_second)
        for c_total in c_totals
    ])
    # T_max = Q / (N * C) with C in bytes/second.
    tmax = buffers * slot_seconds / np.asarray(c_totals) * 1000.0
    return QCCurve(
        n_sources=n_sources,
        target_loss=target_loss,
        metric=metric,
        slot_seconds=slot_seconds,
        capacity_per_source=capacities,
        buffer_bytes=buffers,
        tmax_ms=tmax,
    )


def knee_point(curve):
    """Index of the knee of a Q-C curve.

    The knee is found on normalized (log-delay, linear-capacity)
    coordinates as the point farthest from the chord joining the
    curve's endpoints -- the standard geometric knee criterion.  Points
    with delay below 1 microsecond are clamped to it so the zero-buffer
    end does not dominate the log scale.
    """
    if not isinstance(curve, QCCurve):
        raise TypeError("curve must be a QCCurve")
    x = np.asarray(curve.capacity_per_source, dtype=float)
    y = np.log10(np.maximum(curve.tmax_ms, 1e-3))
    if x.size < 3:
        raise ValueError("need at least 3 points to locate a knee")
    xn = (x - x.min()) / max(np.ptp(x), 1e-12)
    yn = (y - y.min()) / max(np.ptp(y), 1e-12)
    # Distance from the chord between the first and last points.
    dx, dy = xn[-1] - xn[0], yn[-1] - yn[0]
    norm = np.hypot(dx, dy)
    distance = np.abs(dy * (xn - xn[0]) - dx * (yn - yn[0])) / max(norm, 1e-12)
    return int(np.argmax(distance))


def _smg_capacity(arrival_sets, n, lo, hi, *, slot_seconds, slots_per_second,
                  target_loss, metric, tmax_s, rel_tol):
    """Bisect the smallest per-source capacity in ``[lo, hi]`` for ``n``.

    The buffer is sized for the fixed delay ``tmax_s`` at each trial
    capacity; ``hi`` grows by 1.25x until it is feasible.
    """

    def feasible(c_per_source):
        c_total = c_per_source * n
        q = tmax_s * c_total / slot_seconds  # bytes
        if target_loss == 0:
            return all(max_backlog(a, c_total) <= q for a in arrival_sets)
        return (
            _mean_loss(arrival_sets, c_total, q, metric, slots_per_second)
            <= target_loss
        )

    if feasible(lo):
        return lo
    # Peak allocation with a nonzero buffer always suffices for the
    # overall metric; expand defensively otherwise.
    while not feasible(hi):
        hi *= 1.25
    return smallest_feasible(feasible, lo, hi, rel_tol)


def smg_curve(
    series,
    slot_seconds,
    n_values=(1, 2, 5, 10, 20),
    target_loss=0.0,
    tmax_ms=2.0,
    metric="overall",
    n_lag_draws=6,
    min_separation=1000,
    rng=None,
    rel_tol=1e-4,
):
    """Statistical-multiplexing-gain curve (Fig. 15).

    For each ``N``, finds the smallest per-source capacity meeting the
    loss target when the buffer is sized for a fixed maximum delay:
    ``Q = T_max * N * C``.  Returns a dict with arrays
    ``"n_sources"``, ``"capacity_per_source"`` (bytes/slot),
    ``"capacity_per_source_mbps"``, plus scalars ``"mean_rate"`` and
    ``"peak_rate"`` (bytes/slot) and the achieved ``"gain_fraction"``
    per N (share of the peak-to-mean gap recovered).
    """
    arr = as_1d_float_array(series, "series")
    slot_seconds = require_positive(slot_seconds, "slot_seconds")
    target_loss = require_nonnegative(target_loss, "target_loss")
    tmax_ms = require_nonnegative(tmax_ms, "tmax_ms")
    if rng is None:
        rng = np.random.default_rng()
    slots_per_second = max(int(round(1.0 / slot_seconds)), 1)
    mean_rate = float(np.mean(arr))
    peak_rate = float(np.max(arr))
    tmax_s = tmax_ms / 1000.0
    capacities = []
    for n in n_values:
        n = require_positive_int(n, "n_sources")
        arrival_sets = lagged_arrival_sets(arr, n, n_lag_draws, min_separation, rng)
        capacities.append(_smg_capacity(
            arrival_sets, n, mean_rate, peak_rate,
            slot_seconds=slot_seconds, slots_per_second=slots_per_second,
            target_loss=target_loss, metric=metric, tmax_s=tmax_s,
            rel_tol=rel_tol,
        ))
    capacities = np.asarray(capacities, dtype=float)
    gain_fraction = (peak_rate - capacities) / max(peak_rate - mean_rate, 1e-12)
    return {
        "n_sources": np.asarray(list(n_values), dtype=int),
        "capacity_per_source": capacities,
        "capacity_per_source_mbps": capacities * 8.0 / slot_seconds / 1e6,
        "mean_rate": mean_rate,
        "peak_rate": peak_rate,
        "gain_fraction": gain_fraction,
        "tmax_ms": tmax_ms,
        "target_loss": target_loss,
    }
