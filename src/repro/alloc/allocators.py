"""The four allocation policies: static, oracle, harvest, trade.

The family mirrors the resource-allocation ladder of the spirit
allocator suite: a do-nothing baseline, an omniscient upper bound and
two causal policies that move grants between users -- one centralized
(harvest a pot from over-served users, grant it to QoS violators) and
one decentralized (direct pairwise trades between the neediest and the
most comfortable user).

Every policy is a pure function of ``(constructor args, observation
stream, epoch seed)``.  None of them draws from a global RNG, reads the
clock or iterates a dict: rankings break ties by user index, masks are
numpy boolean arrays, and the only randomness permitted is an explicit
``default_rng(epoch_seed)`` (none of the current four needs one -- the
seed is threaded so future stochastic policies inherit determinism for
free).

Conservation under reallocation is the delicate part.  ``c - h + g``
re-rounds at every element, so after a harvest or a trade the float sum
can drift a few ulps off the total; :func:`_absorb_residue` pushes the
residue back into the *non-violating* side so that a user currently
violating its QoS target never loses a single bit of grant to
compensation -- that exactness is what the tier-1 monotonicity property
pins.
"""

from __future__ import annotations

import math

import numpy as np

from repro.alloc.base import (
    Allocation,
    AllocationError,
    AllocatorBase,
    exact_sum,
    partition_exact,
    settle_residue,
)

__all__ = [
    "StaticAllocator",
    "OracleAllocator",
    "HarvestAllocator",
    "TradeAllocator",
    "ALLOCATORS",
    "make_allocator",
]


_UTIL_THRESHOLD = 0.9
"""Utilization a donor keeps its grant at: it keeps demand / 0.9."""


def _absorb_residue(values, total, eligible):
    """Settle the float residue into non-violating entries only (in place).

    Restricting :func:`repro.alloc.base.settle_residue` to users meeting
    their QoS target is what lets the harvest policy promise a violating
    user's grant never decreases, not even by a compensation ulp.  Only
    strictly positive shares participate (a zero share nudged by a
    negative ulp would turn an eligible grant infeasible).

    When the eligible lattice alone cannot express the target (a
    perpetual round-to-even tie -- possible when the only donors live in
    ``total``'s own binade), the fallback completes with the two moves
    the monotonicity contract *does* permit: shaving an eligible share
    downward, and growing a protected share upward.  A protected user's
    grant still never decreases.
    """
    if total - exact_sum(values) == 0.0:
        return values  # settle_residue's own first test, before the ranking
    eligible = np.asarray(eligible, dtype=bool)
    keep = np.flatnonzero(eligible & (values > 0.0))
    order = keep[np.argsort(values[keep], kind="stable")[::-1]]
    try:
        return settle_residue(values, total, candidates=order)
    except AllocationError:
        pass
    # The tie can only be broken by a move that is *not* a whole ulp of
    # ``total`` -- a single nextafter step on a protected share from a
    # lower binade (a strictly finer lattice; at most one share in the
    # whole array can occupy total's own binade, so one almost always
    # exists).  Bulk residue adds land back on the tie, so when a full
    # bulk cycle repeats the same positive residue, take one fine step.
    fine = [int(j) for j in np.flatnonzero(~eligible)
            if math.ulp(float(values[j])) < math.ulp(float(total))]
    grow = max(fine, key=lambda j: values[j], default=None)
    shave = int(order[0]) if order.size else None
    last_positive = None
    for _ in range(256):
        err = total - exact_sum(values)
        if err == 0.0:
            return values
        if err < 0.0:
            if shave is None:  # pragma: no cover - defensive
                break
            values[shave] = np.nextafter(values[shave], -np.inf)
            continue
        if grow is None:  # pragma: no cover - defensive
            break
        if err == last_positive:
            values[grow] = np.nextafter(values[grow], np.inf)
        else:
            bumped = values[grow] + err
            values[grow] = bumped if bumped > values[grow] else np.nextafter(values[grow], np.inf)
        last_positive = err
    raise AllocationError(  # pragma: no cover - defensive
        f"restricted residue settling failed (err={total - exact_sum(values)})"
    )


class StaticAllocator(AllocatorBase):
    """Weight-proportional fixed partition -- the open-loop baseline.

    Whatever happens to the fleet, every epoch reissues the initial
    allocation.  This is the paper's own multiplexing regime (a fixed
    (C, Q) share per user) and the yardstick the closed-loop policies
    must beat.
    """

    name = "static"

    def decide(self, epoch_index, observation, current, epoch_seed):
        return current


class OracleAllocator(AllocatorBase):
    """Clairvoyant upper bound: allocates against *next* epoch's true trace.

    The fleet hands the oracle the next epoch's full per-user arrival
    matrix (``requires_lookahead``).  The oracle seeds capacity
    proportional to required service (carried backlog plus incoming
    bytes), then *rehearses* the epoch: it simulates every user's queue
    at the candidate grant through the canonical slot-fluid kernel,
    sizes buffers to the observed zero-clamp peak need, and moves
    capacity from users that would lose nothing (keeping their average
    required rate plus margin) to users that would lose bytes,
    proportional to their rehearsed losses.  Four such passes give a
    grant no causal policy can match for information -- the fleet-total
    loss lower bound pinned by the dominance property.
    """

    name = "oracle"
    requires_lookahead = True

    def _rehearse(self, arrivals, backlog, capacity, buffer):
        """Simulate every user's next epoch at the candidate grant.

        Returns ``(lost, peak_need)``: rehearsed lost bytes under the
        candidate ``(C_i, Q_i)`` and the zero-clamp peak backlog (the
        buffer that would have avoided all loss at that capacity).  Each
        is one row fold over all users.
        """
        from repro.simulation.slotfluid import run_rows

        lost = run_rows(arrivals, capacity, buffer, backlog)[:, 1]
        peak_need = run_rows(arrivals, capacity, np.inf, backlog)[:, 2]
        return lost, peak_need

    def decide(self, epoch_index, observation, current, epoch_seed):
        arrivals = observation.lookahead_arrivals
        if arrivals is None:
            # Final epoch: nothing left to allocate for.
            return current
        slots = float(observation.epoch_slots)
        backlog = observation.backlog
        need_rate = (backlog + arrivals.sum(axis=1)) / slots
        capacity = partition_exact(need_rate, self.total_capacity,
                                   floor=self.capacity_floor)
        buffer = partition_exact(arrivals.max(axis=1) + backlog,
                                 self.total_buffer)
        for _ in range(4):
            lost, peak_need = self._rehearse(arrivals, backlog, capacity, buffer)
            buffer = partition_exact(np.maximum(peak_need, 1.0), self.total_buffer)
            if not np.any(lost > 0.0):
                break
            keep = np.maximum(self.capacity_floor, need_rate)
            headroom = np.maximum(0.0, capacity - keep)
            donors = (lost == 0.0) & (headroom > 0.0)
            take = np.where(donors, 0.6 * headroom, 0.0)
            pot = float(np.sum(take))
            if pot <= 0.0:
                break
            capacity -= take
            capacity += partition_exact(lost, pot)
            settle_residue(capacity, self.total_capacity)
        return Allocation(capacity=capacity, buffer=buffer)


class HarvestAllocator(AllocatorBase):
    """Reclaim grants from over-served users, redistribute to violators.

    Each epoch: users whose loss rate exceeds ``qos_loss`` are
    *violators*; users meeting their target with spare headroom
    (utilization below 90%) are *donors*.  A quarter
    of each donor's headroom above both the floor
    and its own demand is harvested into a pot and granted to violators
    in proportion to their lost bytes; buffers are harvested the same
    way against peak-backlog occupancy.  A violator is never a donor and
    never funds the float-residue compensation, so its grant is
    non-decreasing -- the monotonicity invariant.
    """

    name = "harvest"

    def decide(self, epoch_index, observation, current, epoch_seed):
        slots = float(observation.epoch_slots)
        loss = observation.loss_rate()
        violating = loss > self.qos_loss
        weight = np.where(violating, observation.lost, 0.0)
        if not np.any(weight > 0.0):
            return current

        capacity = current.capacity.copy()
        buffer = current.buffer.copy()

        # Capacity: a donor keeps max(floor, demand / _UTIL_THRESHOLD).
        demand_rate = observation.offered / slots
        keep_c = np.maximum(self.capacity_floor, demand_rate / _UTIL_THRESHOLD)
        headroom_c = np.maximum(0.0, capacity - keep_c)
        donors_c = (~violating) & (headroom_c > 0.0)
        take_c = np.where(donors_c, 0.25 * headroom_c, 0.0)
        pot_c = float(np.sum(take_c))
        if pot_c > 0.0:
            capacity -= take_c
            capacity += partition_exact(weight, pot_c)
            _absorb_residue(capacity, self.total_capacity, ~violating)

        # Buffer: a donor keeps its observed peak occupancy with margin.
        keep_q = observation.peak_backlog / _UTIL_THRESHOLD
        headroom_q = np.maximum(0.0, buffer - keep_q)
        donors_q = (~violating) & (headroom_q > 0.0)
        take_q = np.where(donors_q, 0.25 * headroom_q, 0.0)
        pot_q = float(np.sum(take_q))
        if pot_q > 0.0:
            buffer -= take_q
            buffer += partition_exact(weight, pot_q)
            _absorb_residue(buffer, self.total_buffer, ~violating)

        return Allocation(capacity=capacity, buffer=buffer)


class TradeAllocator(AllocatorBase):
    """Direct pairwise trades between the neediest and the most comfortable.

    Users are ranked by (loss rate, utilization) -- descending for need,
    ascending for comfort, index-ascending on ties so the matching is a
    pure function of the observation.  The k-th neediest violator is
    paired with the k-th most comfortable non-violator and the pair
    trades half the donor's capacity headroom (and buffer headroom) --
    but only when the trade improves both sides' projected utility: the
    donor must retain enough grant to cover its own demand at 90%
    utilization, the receiver must actually be violating.  Up to
    ``n_users // 2`` pairs trade per epoch, so relief spreads more
    slowly than the harvest pot but without any central accounting.
    """

    name = "trade"

    def decide(self, epoch_index, observation, current, epoch_seed):
        n = self.n_users
        slots = float(observation.epoch_slots)
        loss = observation.loss_rate()
        violating = loss > self.qos_loss
        if not np.any(violating):
            return current

        capacity = current.capacity.copy()
        buffer = current.buffer.copy()
        util = observation.offered / (capacity * slots)
        index = np.arange(n)
        # np.lexsort keys run last-key-primary; ties fall through to the
        # user index, making both rankings total orders.
        needy = np.lexsort((index, -util, -loss))
        comfy = np.lexsort((index, util, loss))

        demand_rate = observation.offered / slots
        keep_c = np.maximum(self.capacity_floor, demand_rate / _UTIL_THRESHOLD)
        keep_q = observation.peak_backlog / _UTIL_THRESHOLD

        receivers, donors = needy[:n // 2], comfy[:n // 2]
        # Pairs trade up to the first that stops: a receiver that is not
        # violating or a donor that is.  Before it receivers violate and
        # donors do not, so no user is in two pairs and every trade reads
        # untouched grants: one vectorised step per grant is the pairwise
        # loop, bit for bit.  A pair moves only a positive share of the
        # donor's headroom.
        stops = np.flatnonzero((receivers == donors) | ~violating[receivers]
                               | violating[donors])
        if stops.size:
            receivers, donors = receivers[:stops[0]], donors[:stops[0]]
        traded = False
        for grant, keep in ((capacity, keep_c), (buffer, keep_q)):
            delta = 0.5 * (grant[donors] - keep[donors])
            moves = delta > 0.0
            grant[donors[moves]] -= delta[moves]
            grant[receivers[moves]] += delta[moves]
            traded = traded or bool(moves.any())
        if not traded:
            return current
        _absorb_residue(capacity, self.total_capacity, ~violating)
        _absorb_residue(buffer, self.total_buffer, ~violating)
        return Allocation(capacity=capacity, buffer=buffer)


ALLOCATORS = {
    StaticAllocator.name: StaticAllocator,
    OracleAllocator.name: OracleAllocator,
    HarvestAllocator.name: HarvestAllocator,
    TradeAllocator.name: TradeAllocator,
}


def make_allocator(name, total_capacity, total_buffer, n_users, **kwargs):
    """Instantiate a registered allocator by name (``ValueError`` otherwise)."""
    try:
        cls = ALLOCATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator {name!r}; choose from {sorted(ALLOCATORS)}"
        ) from None
    return cls(total_capacity, total_buffer, n_users, **kwargs)
