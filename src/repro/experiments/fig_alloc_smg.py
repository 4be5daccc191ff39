"""Multiplexing gain under dynamic allocation vs. epoch length.

The paper's Fig. 15 asks how much capacity multiplexing saves when N
sources share a link *statically*.  This experiment asks the follow-on
question its 1994 authors could not: how much more does *closed-loop
reallocation* save, and how does the gain depend on how often the
controller may act (the epoch length)?

For one heterogeneous fleet and a fixed shared buffer, three capacity
requirements are bisected to the same fleet-total loss target:

* ``capacity_dedicated`` -- every user provisioned alone on its own
  slice (no sharing at all): the sum of per-user required capacities.
* ``capacity_static`` -- the pool under the static equal partition
  (open-loop sharing, the paper's regime).
* ``capacity_dynamic[L]`` -- the pool under the causal harvest
  allocator reallocating every ``L`` slots.

``smg_* = capacity_dedicated / capacity_*`` is the statistical
multiplexing gain of each regime; a partitioned regime can score *below*
one (an equal split serves heterogeneous users worse than slices
tailored per user), and the shortfall measures the cost of partitioning.
``gain_vs_static`` isolates what the closed loop adds.  Norros' fBm dimensioning formula
(:func:`repro.simulation.norros.norros_capacity`) at the aggregate
traffic's measured mean/variance (and the fleet's most bursty Hurst
class -- the conservative choice) is reported as the closed-form
anchor.
"""

from __future__ import annotations

import numpy as np

from repro.alloc.fleet import FleetSpec, demo_fleet, fleet_arrivals, simulate_fleet
from repro.simulation.norros import norros_capacity
from repro.simulation.qc import required_capacity
from repro.simulation.queue import smallest_feasible

__all__ = ["run"]


def _fleet_spec(base, epoch_slots, n_epochs, total_capacity, total_buffer):
    return FleetSpec(
        users=base.users,
        epoch_slots=epoch_slots,
        n_epochs=n_epochs,
        total_capacity=total_capacity,
        total_buffer=total_buffer,
        qos_loss=base.qos_loss,
        seed=base.seed,
    )


def _min_pool_capacity(base, epoch_slots, arrivals, total_buffer, allocator,
                       target_loss, lo, hi, rel_tol):
    """Bisect the smallest pool capacity meeting the fleet loss target.

    Every bisection step runs the same ``arrivals`` set: capacity moves
    the pool, not the traffic.
    """

    def feasible(capacity):
        spec = _fleet_spec(base, epoch_slots, len(arrivals), capacity, total_buffer)
        return simulate_fleet(spec, allocator, arrivals=arrivals).total_loss_rate <= target_loss

    if feasible(lo):
        return lo
    for _ in range(6):
        if feasible(hi):
            break
        lo, hi = hi, hi * 2.0
    return smallest_feasible(feasible, lo, hi, rel_tol)


def run(
    trace=None,
    n_users=16,
    epoch_lengths=(30, 60, 120),
    total_slots=2_400,
    target_loss=1e-2,
    buffer_slots=12.0,
    seed=7,
    rel_tol=2e-2,
):
    """Capacity requirements and SMG per allocation regime.

    ``trace`` is accepted for runner uniformity and ignored.  The fleet
    runs ``total_slots`` slots regardless of epoch length (the epoch
    grid re-synthesizes per-(user, epoch) seeded arrivals, so regimes
    see statistically identical -- not bit-identical -- traffic).  Each
    distinct epoch length gets one arrival set, shared by every run at
    that length.
    """
    del trace
    lengths = [int(x) for x in epoch_lengths]
    base = demo_fleet(n_users, epoch_slots=lengths[0],
                      n_epochs=max(total_slots // lengths[0], 1), seed=seed)
    mean_rate = float(sum(u.mean for u in base.users))
    total_buffer = buffer_slots * mean_rate
    arrival_sets = {
        length: fleet_arrivals(_fleet_spec(
            base, length, max(total_slots // length, 1), None, total_buffer))
        for length in dict.fromkeys(lengths)
    }

    # Dedicated baseline: each user alone on its own capacity slice with
    # an equal buffer share, over the first epoch length's arrivals.
    series = np.concatenate(arrival_sets[lengths[0]], axis=1)
    per_user_buffer = total_buffer / n_users
    dedicated = [
        required_capacity([series[i]], per_user_buffer, target_loss)
        for i in range(n_users)
    ]
    capacity_dedicated = float(np.sum(dedicated))

    # Aggregate statistics for the Norros closed form.
    aggregate = series.sum(axis=0)
    agg_mean = float(np.mean(aggregate))
    agg_var = float(np.var(aggregate))
    hurst_max = max((u.hurst for u in base.users if u.kind == "video"), default=0.8)
    capacity_norros = norros_capacity(
        agg_mean, agg_var / agg_mean, total_buffer, target_loss, hurst_max
    )

    lo = agg_mean
    hi = capacity_dedicated

    mid_length = lengths[len(lengths) // 2]
    capacity_static = _min_pool_capacity(
        base, mid_length, arrival_sets[mid_length], total_buffer,
        "static", target_loss, lo, hi, rel_tol,
    )
    capacity_dynamic = {}
    for length in lengths:
        capacity_dynamic[length] = _min_pool_capacity(
            base, length, arrival_sets[length], total_buffer,
            "harvest", target_loss, lo, hi, rel_tol,
        )

    return {
        "n_users": n_users,
        "epoch_lengths": tuple(lengths),
        "total_slots": total_slots,
        "target_loss": target_loss,
        "total_buffer": total_buffer,
        "mean_rate": mean_rate,
        "capacity_dedicated": capacity_dedicated,
        "capacity_static": capacity_static,
        "capacity_dynamic": {str(k): float(v) for k, v in capacity_dynamic.items()},
        "capacity_norros": capacity_norros,
        "norros_hurst": hurst_max,
        "smg_static": capacity_dedicated / capacity_static,
        "smg_dynamic": {
            str(k): capacity_dedicated / float(v) for k, v in capacity_dynamic.items()
        },
        "gain_vs_static": {
            str(k): capacity_static / float(v) for k, v in capacity_dynamic.items()
        },
    }
