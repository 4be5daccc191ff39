"""Allocator shoot-out: per-user loss/delay percentiles and fairness.

The closed-loop counterpart to the paper's open-loop multiplexing
figures: a seeded heterogeneous fleet (mixed-Hurst fGn video, CBR and
bursty data users) shares one (C, Q) pool, and each registered
allocator runs the *same* fleet -- identical arrivals, identical seeds,
identical totals -- differing only in how it re-partitions the pool
every epoch.  The arrivals are literally the same arrays: one
:func:`~repro.alloc.fleet.fleet_arrivals` set is built and handed to
every allocator's run.  The experiment reports per-user loss and delay
percentiles, Jain fairness and the reallocation activity per allocator,
plus the two ordering claims the acceptance pins: harvest and trade
beat the static baseline on p99 per-user loss, and the clairvoyant
oracle lower-bounds every policy's fleet-total loss.
"""

from __future__ import annotations

from repro.alloc.allocators import ALLOCATORS
from repro.alloc.fleet import demo_fleet, fleet_arrivals, simulate_fleet

__all__ = ["run"]


def run(
    trace=None,
    n_users=48,
    epoch_slots=100,
    n_epochs=40,
    utilization=0.7,
    buffer_slots=12.0,
    qos_loss=1e-3,
    seed=2026,
):
    """Run every allocator over one seeded fleet; return the comparison.

    ``trace`` is accepted for runner uniformity and ignored -- the fleet
    is fully synthetic.  Returns ``{"allocators": {name: summary},
    "p99_loss": ..., "gain_vs_static": ..., "oracle_is_lower_bound":
    bool, "harvest_beats_static_p99": bool, ...}``.
    """
    del trace
    names = tuple(sorted(ALLOCATORS))
    spec = demo_fleet(
        n_users,
        epoch_slots=epoch_slots,
        n_epochs=n_epochs,
        utilization=utilization,
        buffer_slots=buffer_slots,
        qos_loss=qos_loss,
        seed=seed,
    )
    arrivals = fleet_arrivals(spec)
    summaries = {}
    total_loss = {}
    p99 = {}
    for name in names:
        result = simulate_fleet(spec, name, arrivals=arrivals)
        summaries[name] = result.summary()
        total_loss[name] = result.total_loss_rate
        p99[name] = result.loss_percentiles()["p99"]

    static_p99 = p99.get("static")
    gain_vs_static = {
        name: (static_p99 / value if static_p99 and value > 0.0 else float("inf"))
        for name, value in p99.items()
    }
    oracle_total = total_loss.get("oracle")
    return {
        "fleet": {
            "n_users": n_users,
            "epoch_slots": epoch_slots,
            "n_epochs": n_epochs,
            "utilization": utilization,
            "buffer_slots": buffer_slots,
            "qos_loss": qos_loss,
            "seed": seed,
        },
        "allocators": summaries,
        "total_loss": total_loss,
        "p99_loss": p99,
        "gain_vs_static": gain_vs_static,
        "oracle_is_lower_bound": (
            oracle_total is not None
            and all(oracle_total <= total_loss[n] for n in names)
        ),
        "harvest_beats_static_p99": (
            "harvest" in p99 and static_p99 is not None and p99["harvest"] < static_p99
        ),
        "trade_beats_static_p99": (
            "trade" in p99 and static_p99 is not None and p99["trade"] < static_p99
        ),
    }
