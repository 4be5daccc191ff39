"""The allocator contract: observe a fleet epoch, emit a feasible partition.

The closed-loop question the 1994 paper could not run: N *heterogeneous*
VBR users share one link of capacity ``C`` bytes/slot and one buffer pool
of ``Q`` bytes, and a control plane re-partitions ``(C, Q)`` into per-user
grants ``(C_i, Q_i)`` once per *epoch* (a fixed block of slots).  An
allocator sees only what a real controller would see -- last epoch's
per-user offered bytes, losses, backlogs and peaks -- and must return a
partition that is

* **conserving** -- ``exact_sum(C_i) == C`` and ``exact_sum(Q_i) == Q``
  *exactly*, in IEEE double arithmetic, where :func:`exact_sum` is the
  correctly-rounded (``math.fsum``) sum and :func:`partition_exact`
  repairs division-rounding residue with a compensation loop, and
* **feasible** -- every grant finite, capacities strictly positive,
  buffers non-negative.

Both invariants are enforced on *every* epoch by :meth:`AllocatorBase.step`,
not merely asserted in tests: a violating allocator raises
:class:`AllocationError` at the decision point, so a buggy policy cannot
silently leak capacity into (or out of) the fleet.

Determinism is part of the contract too.  An allocator decision may
depend only on its constructor arguments, the observation stream and the
sha256-derived ``epoch_seed`` handed to :meth:`AllocatorBase.step` --
never on wall clock, worker identity or dict iteration order.  That is
what makes the fleet campaigns bit-identical on any node and any rerun.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro._validation import require_positive

__all__ = [
    "AllocationError",
    "Allocation",
    "EpochObservation",
    "AllocatorBase",
    "exact_sum",
    "partition_exact",
    "settle_residue",
]


class AllocationError(ValueError):
    """An allocator emitted a non-conserving or infeasible partition."""


def exact_sum(values):
    """The canonical conservation sum: ``math.fsum`` over the grants.

    ``np.sum``'s pairwise result depends on memory order, so "the sum"
    of a partition is ill-defined under it; ``math.fsum`` is the
    correctly-rounded sum of the exact real values, order-independent
    and reproducible everywhere.  All conservation contracts in
    ``repro.alloc`` -- :meth:`Allocation.validate`, the property-test
    wall, the campaign digests -- compare against this sum.
    """
    arr = np.asarray(values, dtype=float)
    return math.fsum(arr.tolist())


def partition_exact(weights, total, floor=0.0):
    """Split ``total`` proportionally to ``weights`` with an *exact* float sum.

    Every share is at least ``floor``; the remainder ``total - n * floor``
    is distributed proportionally to ``weights`` (equal split when all
    weights vanish).  Proportional division rounds, so the naive shares
    miss ``total`` by a few ulps -- enough to leak capacity over
    thousands of epochs.  :func:`settle_residue` feeds the residue back
    into the shares until :func:`exact_sum` reproduces ``total``
    bit-for-bit (one or two passes in practice).

    Returns a fresh ``float64`` array ``out`` with
    ``exact_sum(out) == float(total)`` exactly, ``out >= 0``, and every
    share within a compensation ulp of ``>= floor``.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    total = float(require_positive(total, "total"))
    floor = float(floor)
    if floor < 0.0:
        raise ValueError(f"floor must be non-negative, got {floor}")
    n = w.size
    if floor * n > total:
        raise ValueError(
            f"floor {floor} infeasible: n * floor = {floor * n} exceeds total {total}"
        )
    spread = total - floor * n
    mass = float(np.sum(w))
    if mass > 0.0:
        out = floor + spread * (w / mass)
    else:
        out = np.full(n, floor + spread / n)
    settle_residue(out, total)
    if np.any(out < 0.0):
        # Compensation can push a zero share a few ulps negative; clip
        # and re-settle (the clip moves the sum by those same ulps).
        np.maximum(out, 0.0, out=out)
        settle_residue(out, total)
    return out


def settle_residue(values, total, candidates=None):
    """Nudge ``values`` in place until ``exact_sum(values) == total``.

    Each pass feeds the residue ``total - exact_sum(values)`` into one
    entry, cycling through ``candidates`` (all indices by default,
    largest share first).  Because :func:`exact_sum` is the correctly
    rounded real sum -- no intermediate quantization -- each absorption
    shrinks the residue toward the rounding error of a single addition,
    and some candidate's magnitude always admits the final sub-ulp
    nudge; the loop converges in a couple of passes.  (Settling against
    ``np.sum`` instead is genuinely impossible for some inputs: its
    pairwise tree can round every reachable sum onto a lattice that
    skips ``total`` entirely.)  Raises :class:`AllocationError` if the
    residue survives every pass, which no finite input does.
    """
    if candidates is None:
        candidates = np.argsort(values, kind="stable")[::-1]
    candidates = [int(k) for k in candidates]
    n_candidates = len(candidates)
    for attempt in range(2 * n_candidates):
        err = total - exact_sum(values)
        if err == 0.0:
            return values
        values[candidates[attempt % n_candidates]] += err
    # The full-residue feed can ping-pong when the exact real sum sits at
    # a round-to-even tie (exactly half an ulp of ``total`` away, with
    # every whole-ulp step jumping across).  Walk one candidate
    # ulp-by-ulp, *smallest share first*: a share below ``total``'s
    # binade has a strictly finer ulp, so its steps move the real sum by
    # a sub-ulp amount that breaks the tie.  At most one share can live
    # in ``total``'s own binade (it would have to exceed total/2), so
    # with two or more candidates a tie-breaking lattice always exists.
    for k in sorted(candidates, key=lambda i: abs(values[i])):
        saved = values[k]
        for _ in range(64):
            err = total - exact_sum(values)
            if err == 0.0:
                return values
            values[k] = np.nextafter(values[k], math.copysign(math.inf, err))
        values[k] = saved
    raise AllocationError(
        f"residue settling failed to converge (err={total - exact_sum(values)})"
    )


@dataclass(frozen=True)
class Allocation:
    """One epoch's partition: per-user capacity (bytes/slot) and buffer (bytes)."""

    capacity: np.ndarray
    buffer: np.ndarray

    def validate(self, total_capacity, total_buffer):
        """Raise :class:`AllocationError` unless conserving and feasible."""
        c, q = self.capacity, self.buffer
        if c.shape != q.shape or c.ndim != 1:
            raise AllocationError("capacity and buffer must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(q))):
            raise AllocationError("allocation contains NaN or infinite grants")
        if np.any(c <= 0.0):
            raise AllocationError("capacity grants must be strictly positive")
        if np.any(q < 0.0):
            raise AllocationError("buffer grants must be non-negative")
        if exact_sum(c) != float(total_capacity):
            raise AllocationError(
                f"capacity not conserved: sum {exact_sum(c)!r} != {float(total_capacity)!r}"
            )
        if exact_sum(q) != float(total_buffer):
            raise AllocationError(
                f"buffer not conserved: sum {exact_sum(q)!r} != {float(total_buffer)!r}"
            )
        return self


@dataclass(frozen=True)
class EpochObservation:
    """What the controller saw last epoch, one entry per user.

    ``offered``/``lost`` are bytes over the epoch, ``backlog`` the
    end-of-epoch queue and ``peak_backlog`` the epoch's high-water mark.
    ``lookahead_arrivals`` is the *next* epoch's true per-user arrival
    matrix (``n_users x epoch_slots``); the fleet passes it only to
    allocators that declare ``requires_lookahead = True`` (the oracle)
    -- causal policies never see it.
    """

    epoch_slots: int
    offered: np.ndarray
    lost: np.ndarray
    backlog: np.ndarray
    peak_backlog: np.ndarray
    lookahead_arrivals: np.ndarray | None = None

    def loss_rate(self):
        """Per-user lost/offered for the epoch (0 where nothing was offered)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            rate = np.where(self.offered > 0.0, self.lost / self.offered, 0.0)
        return rate


class AllocatorBase:
    """Contract base: hold the totals, validate every emitted partition.

    Subclasses implement :meth:`decide`; callers drive :meth:`step`,
    which wraps the decision with the conservation/feasibility check.
    ``capacity_floor`` is the minimum per-user capacity grant (5% of
    the equal share) -- no policy may starve a user to zero,
    which would stall its queue forever and break the loss accounting.
    """

    name = "base"
    requires_lookahead = False

    def __init__(self, total_capacity, total_buffer, n_users, *,
                 qos_loss=1e-3, weights=None):
        self.total_capacity = float(require_positive(total_capacity, "total_capacity"))
        self.total_buffer = float(require_positive(total_buffer, "total_buffer"))
        self.n_users = int(n_users)
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        self.qos_loss = float(qos_loss)
        if not 0.0 <= self.qos_loss < 1.0:
            raise ValueError(f"qos_loss must be in [0, 1), got {qos_loss}")
        self.capacity_floor = 0.05 * self.total_capacity / self.n_users
        if weights is None:
            self.weights = np.ones(self.n_users)
        else:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (self.n_users,):
                raise ValueError("weights must have one entry per user")

    def initial_allocation(self):
        """The epoch-0 partition: weight-proportional, before any observation."""
        alloc = Allocation(
            capacity=partition_exact(self.weights, self.total_capacity,
                                     floor=self.capacity_floor),
            buffer=partition_exact(self.weights, self.total_buffer),
        )
        return alloc.validate(self.total_capacity, self.total_buffer)

    def decide(self, epoch_index, observation, current, epoch_seed):
        """Return the next :class:`Allocation` (subclass responsibility)."""
        raise NotImplementedError

    def step(self, epoch_index, observation, current, epoch_seed):
        """Run :meth:`decide` and enforce the contract on its output."""
        alloc = self.decide(epoch_index, observation, current, epoch_seed)
        return alloc.validate(self.total_capacity, self.total_buffer)
