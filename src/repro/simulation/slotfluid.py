"""The canonical slot-fluid queue recursion, in exactly one place.

Three code paths run the same finite-buffer fluid recursion per time
slot -- the batch simulator (:func:`repro.simulation.queue.simulate_queue`),
the streaming fold (:class:`repro.stream.queueing.StreamingQueue`) and
the FIFO port of :mod:`repro.net.sched`:

    ``pre_t  = b_{t-1} + (a_t - c)``
    ``lost_t = max(0, pre_t - Q)``
    ``b_t    = min(max(pre_t, 0), Q)``

The floating-point evaluation order is part of the contract: the whole
stack promises *bit-for-bit* agreement between the batch, streaming and
network simulators, so every implementation must compute
``b + (a - c)`` (not ``(b + a) - c``) and clamp in the same order.
Keeping the loop here means the paths cannot drift.

:func:`slot_step` is the scalar one-slot update, spelling out the
served volume a network hop forwards (the FIFO discipline derives the
same volume from the fold's backlog series); :func:`fold_slots` is the
batch loop over a list of
arrivals, in Python: the oracle the compiled fold is tested against and
its fallback.  A property test pins ``fold_slots`` to repeated
``slot_step`` applications.

:func:`run_slots` is the array-shaped entry point.  It folds through
``slotfluid_fold``, the same loop in C, in the package's one compiled
library (:mod:`repro._kernel`, built by gcc on first use with
``-O2 -ffp-contract=off``); with the same IEEE double operations in the
same order its results equal :func:`fold_slots` bit for bit.  When the
build or load fails, one WARNING is logged and :func:`fold_slots` runs
instead.  :func:`run_rows` folds every row of a matrix, each under its
own capacity, buffer and carried backlog, in one call of the same
library (``slotfluid_fold_rows``): a fleet epoch, or an allocator's
rehearsal of one, is one call rather than one per user.  Each row equals
:func:`run_slots` on that row bit for bit.

:func:`fold_priority` is the one strict-priority recursion with
pushout, over a ``(K, T)`` matrix of per-class arrivals: every
priority port of the network folds through it.  Its overflow is
:func:`clamp_backlog`'s drop rule on the aggregate backlog.

The zero-loss analysis needs no fold at all: the infinite-buffer peak
backlog is the maximum drawdown of the net-input walk.
:func:`max_drawdown` is that as a numpy expression, and
:func:`run_drawdown` computes it in one pass of the same library
(``slotfluid_drawdown``), equal to the numpy expression bit for bit;
the numpy expression is its fallback and its oracle.
"""

from __future__ import annotations

import numpy as np

from repro._kernel import _KERNEL, _State

__all__ = [
    "SlotFluidState",
    "clamp_backlog",
    "slot_step",
    "fold_slots",
    "run_slots",
    "run_rows",
    "fold_priority",
    "max_drawdown",
    "run_drawdown",
]


# State threaded through fold_slots: (backlog, lost, peak, total).
# A plain tuple, not a dataclass: the fold sits on the hottest loop in
# the repo and the callers already keep these as local floats.
SlotFluidState = tuple


def clamp_backlog(backlog, buffer_bytes):
    """Clamp a post-service backlog into ``[0, Q]``; returns ``(backlog, lost)``.

    The shared drop rule: whatever exceeds the buffer is lost, a
    negative backlog (capacity exceeded demand) is an empty queue.
    """
    if backlog > buffer_bytes:
        return buffer_bytes, backlog - buffer_bytes
    if backlog < 0.0:
        return 0.0, 0.0
    return backlog, 0.0


def slot_step(backlog, arrival, capacity, buffer_bytes):
    """One slot of the fluid recursion; returns ``(backlog, served, lost)``.

    ``served`` is the volume that leaves on the output side this slot
    (``min(b_{t-1} + a_t, c)``) -- the quantity a network hop forwards
    downstream.  The backlog and loss arithmetic is bit-identical to
    :func:`fold_slots`: the pre-clamp backlog is ``b + (a - c)``.
    """
    pre = backlog + (arrival - capacity)
    if pre > buffer_bytes:
        return buffer_bytes, capacity, pre - buffer_bytes
    if pre < 0.0:
        # The queue drains completely: everything present was served.
        return 0.0, backlog + arrival, 0.0
    return pre, capacity, 0.0


def fold_slots(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0),
               loss_series=None, backlog_series=None):
    """Fold the recursion over ``values``; returns the advanced state.

    ``values`` is a plain list of floats (callers convert via
    ``ndarray.tolist()`` -- Python-level float ops beat per-element
    ndarray access on this loop), ``state`` is ``(backlog, lost, peak,
    total)`` and the return value is the same tuple advanced by
    ``len(values)`` slots.  The offered total accumulates in
    left-to-right order so any chunk partition reproduces every
    statistic bit-for-bit.  When ``loss_series`` (a numpy array at
    least as long as ``values``) is given, per-slot losses are written
    into it from index 0; ``backlog_series`` likewise receives every
    slot's post-clamp backlog.
    """
    backlog, lost, peak, total = state
    c = capacity
    q = buffer_bytes
    if loss_series is None and backlog_series is None:
        for arrival in values:
            total += arrival
            backlog += arrival - c
            if backlog > q:
                lost += backlog - q
                backlog = q
            elif backlog < 0.0:
                backlog = 0.0
            if backlog > peak:
                peak = backlog
        return backlog, lost, peak, total
    for t, arrival in enumerate(values):
        total += arrival
        backlog += arrival - c
        if backlog > q:
            overflow = backlog - q
            lost += overflow
            if loss_series is not None:
                loss_series[t] = overflow
            backlog = q
        elif backlog < 0.0:
            backlog = 0.0
        if backlog > peak:
            peak = backlog
        if backlog_series is not None:
            backlog_series[t] = backlog
    return backlog, lost, peak, total


def run_slots(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0),
              loss_series=None, backlog_series=None):
    """Fold an array of arrivals; :func:`fold_slots` on the compiled loop.

    The one path every array-shaped caller goes through
    (:func:`repro.simulation.queue.simulate_queue`, the streaming fold,
    the FIFO discipline of every network port, the fleet simulator).
    ``values`` is any 1-D array-like; it is folded as float64.  The
    arguments and the returned ``(backlog, lost, peak, total)`` tuple of
    floats are those of :func:`fold_slots`, and so are the results, bit
    for bit, for any chunk partition.  ``loss_series`` and
    ``backlog_series`` must each be a writable, C-contiguous float64
    array at least as long as ``values``; anything else raises
    ``ValueError`` before a slot is folded.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"arrivals must be one-dimensional, got shape {a.shape}")
    for name, series in (("loss_series", loss_series),
                         ("backlog_series", backlog_series)):
        if series is not None:
            _check_series(series, a.size, name)
    fold = _KERNEL.fold
    if fold is None:
        fold = _KERNEL.load().fold
    if not fold:
        return fold_slots(a.tolist(), capacity, buffer_bytes, state=state,
                          loss_series=loss_series, backlog_series=backlog_series)
    out = _State(*state)
    fold(a.ctypes.data, a.size, capacity, buffer_bytes, out,
         None if loss_series is None else loss_series.ctypes.data,
         None if backlog_series is None else backlog_series.ctypes.data)
    return tuple(out)


def run_rows(matrix, capacity, buffer_bytes, backlog):
    """Fold every row of ``matrix`` in one compiled call; returns ``(R, 4)``.

    ``matrix`` is an ``(R, T)`` array-like of arrivals, folded as
    float64; ``capacity``, ``buffer_bytes`` and ``backlog`` are each a
    scalar or one value per row.  Row ``r`` of the result is
    ``run_slots(matrix[r], capacity[r], buffer_bytes[r],
    state=(backlog[r], 0.0, 0.0, 0.0))``, bit for bit: the same fold,
    without a Python call per row.  The fallback runs :func:`fold_slots`
    per row.
    """
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"arrivals must be two-dimensional, got shape {a.shape}")
    rows = a.shape[0]
    c, q, b = (np.ascontiguousarray(np.broadcast_to(np.asarray(x, np.float64), (rows,)))
               for x in (capacity, buffer_bytes, backlog))
    fold_rows = _KERNEL.fold_rows
    if fold_rows is None:
        fold_rows = _KERNEL.load().fold_rows
    if not fold_rows:
        folds = [fold_slots(row, cr, qr, state=(br, 0.0, 0.0, 0.0))
                 for row, cr, qr, br in zip(a.tolist(), *(x.tolist() for x in (c, q, b)))]
        return np.array(folds).reshape(rows, 4)
    state = np.zeros((rows, 4))
    state[:, 0] = b
    fold_rows(a.ctypes.data, rows, a.shape[1], c.ctypes.data, q.ctypes.data,
              state.ctypes.data)
    return state


def fold_priority(arrivals, capacity, buffer_bytes, priorities, backlog):
    """Strict-priority service with pushout over a ``(K, T)`` arrival matrix.

    The one strict-priority recursion: every priority port of
    :mod:`repro.net.sched` runs it.  Row ``i`` of ``arrivals`` is class
    ``i`` (registration order), ``priorities[i]`` its priority (0 is
    highest) and ``backlog[i]`` the bytes it holds before the first
    slot.  Per slot:

    1. each class adds its arrivals to its backlog;
    2. up to ``capacity`` bytes are served, classes in
       ``(priority, index)`` order;
    3. the aggregate backlog (added in index order) goes through
       :func:`clamp_backlog`'s drop rule, and the overflow is pushed out
       from the lowest-priority class up, each drop clamped to the
       backlog the class holds.

    Returns ``(served, lost, backlog_series, served_total, lost_total,
    final)``: per-class ``(K, T)`` arrays, the aggregate backlog after
    each slot, the aggregate served and dropped volume of each slot
    (added in service and pushout order) and the list of per-class
    backlogs after the last slot.
    """
    rows = np.asarray(arrivals, dtype=np.float64)
    k, n = rows.shape
    order = sorted(range(k), key=lambda i: (priorities[i], i))
    # With priorities in index order, the service loop meets the classes
    # in index order and its running sum of the backlogs left behind is
    # the aggregate (a fully served class adds an exact 0.0).  Skipping
    # the second pass there cut a two-class fold of 20,000 slots by about
    # 12% (best of 5, 30 paired rounds, 2 vCPUs).
    in_order = order == list(range(k))
    held = list(backlog)
    served, lost, level = np.zeros((k, n)), np.zeros((k, n)), np.zeros(n)
    # Slot values are written through memoryviews of the result arrays.
    columns = rows.tolist()
    service = [(i, columns[i], memoryview(served[i])) for i in order]
    pushout = [(i, memoryview(lost[i])) for i in reversed(order)]
    levels = memoryview(level)
    for t in range(n):
        remaining = capacity
        total = 0.0
        for i, arriving, row in service:
            # Serve min(x, remaining): all of x, or the rest of the capacity.
            x = held[i] + arriving[t]
            if x < remaining:
                row[t] = x
                remaining -= x
                held[i] = 0.0
            else:
                if remaining > 0.0:
                    row[t] = remaining
                    x -= remaining
                    remaining = 0.0
                held[i] = x
                total += x
        if not in_order:
            total = 0.0
            for x in held:
                total += x
        if total > buffer_bytes:
            # clamp_backlog's drop rule, inlined on this per-slot path.
            overflow = total - buffer_bytes
            for i, row in pushout:
                x = held[i]
                d = x if x < overflow else overflow
                if d > 0.0:
                    held[i] = x - d
                    overflow -= d
                    row[t] = d
                if overflow <= 0.0:
                    break
            total = 0.0
            for x in held:
                total += x
        levels[t] = total
    # A slot's totals add its volumes in service order and pushout order.
    served_total, lost_total = np.zeros(n), np.zeros(n)
    for i in order:
        served_total += served[i]
    for i in reversed(order):
        lost_total += lost[i]
    return served, lost, level, served_total, lost_total, held


def max_drawdown(a, capacity):
    """Largest backlog of the infinite-buffer queue, as a numpy expression.

    The maximum drawdown of ``S_t = sum_{u<=t} (a_u - c)``:
    ``max(0, max_t (S_t - min(0, min_{u<=t} S_u)))``, for a 1-D float64
    array ``a``.  The oracle of :func:`run_drawdown` and its fallback.
    """
    s = np.cumsum(a - capacity)
    running_min = np.minimum(np.minimum.accumulate(s), 0.0)
    return float(np.max(s - running_min, initial=0.0))


def run_drawdown(values, capacity):
    """:func:`max_drawdown` in one compiled pass, equal to it bit for bit.

    ``values`` is any 1-D array-like, taken as float64; callers validate
    it (:func:`repro.simulation.queue.max_backlog` does), so a
    bisection can validate once and call this every step.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    drawdown = _KERNEL.drawdown
    if drawdown is None:
        drawdown = _KERNEL.load().drawdown
    if not drawdown:
        return max_drawdown(a, capacity)
    return drawdown(a.ctypes.data, a.size, capacity)


def _check_series(series, n, name):
    """Refuse an output buffer the C loop could not write ``n`` slots into."""
    if not isinstance(series, np.ndarray) or series.dtype != np.float64:
        got = getattr(series, "dtype", type(series).__name__)
        raise ValueError(f"{name} must be a float64 ndarray, got {got}")
    if series.ndim != 1 or series.size < n:
        raise ValueError(f"{name} of shape {series.shape} cannot hold {n} slots")
    if not series.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if not series.flags.writeable:
        raise ValueError(f"{name} is read-only")
