#!/usr/bin/env python3
"""Closed-loop bandwidth/buffer allocation over a heterogeneous fleet.

The paper multiplexes homogeneous Star Wars sources into one FIFO
queue; this demo runs the control plane it could not: a mixed fleet of
self-similar video, CBR and bursty data users sharing one ``(C, Q)``
pool, re-partitioned every epoch by the ``repro.alloc`` allocators:

1. the policy ladder at equal resources: static partition, reactive
   harvest, paired capacity/buffer trades, and the clairvoyant oracle
   upper bound, compared on total and p99 per-user loss;
2. the conservation contract: every epoch's partition sums to the pool
   totals *exactly* (compensated ``math.fsum``, not approximately);
3. determinism: a run on the fleet's shared, read-only arrival set
   (``fleet_arrivals``, built once for many runs) and a run that
   synthesizes its arrivals lazily produce digest-identical results.

Run:  python examples/fleet_allocation.py [--users 24] [--epochs 16]
"""

import argparse

import numpy as np

from repro.alloc import (
    ALLOCATORS,
    demo_fleet,
    exact_sum,
    fleet_arrivals,
    simulate_fleet,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=24, help="fleet size")
    parser.add_argument("--epochs", type=int, default=16,
                        help="allocation epochs")
    parser.add_argument("--epoch-slots", type=int, default=60,
                        help="slots per epoch")
    return parser.parse_args()


def main():
    args = parse_args()
    spec = demo_fleet(args.users, epoch_slots=args.epoch_slots,
                      n_epochs=args.epochs, utilization=0.8,
                      buffer_slots=12.0, seed=2026)
    capacity, buffer = spec.resolved_totals()
    kinds = [u.kind for u in spec.users]
    print(f"fleet: {args.users} users "
          f"({kinds.count('video')} video, {kinds.count('cbr')} cbr, "
          f"{kinds.count('data')} data), pool C={capacity:.0f} B/slot, "
          f"Q={buffer:.0f} B, {args.epochs} epochs x {args.epoch_slots} slots")

    # --- 1. The policy ladder at equal (C, Q) --------------------------
    print("\nallocator comparison (same pool, same arrivals):")
    results = {}
    for name in ALLOCATORS:
        results[name] = simulate_fleet(spec, name, record_history=True)
    for name, r in sorted(results.items(), key=lambda kv: kv[1].total_loss_rate):
        p = r.loss_percentiles()
        print(f"  {name:8s}: total loss {r.total_loss_rate:.4f}, "
              f"p99 user loss {p['p99']:.4f}, fairness {r.fairness():.3f}, "
              f"{r.reallocations} reallocations")
    assert results["oracle"].total_loss_rate <= min(
        results[n].total_loss_rate for n in ("static", "harvest", "trade"))
    assert results["harvest"].loss_percentiles()["p99"] \
        < results["static"].loss_percentiles()["p99"]
    print("  -> dynamic policies beat the static partition; the oracle's "
          "lookahead is the upper bound")

    # --- 2. Conservation is exact, not approximate ---------------------
    for r in results.values():
        for entry in r.history:
            assert exact_sum(entry["capacity_after"]) == capacity
            assert exact_sum(entry["buffer_after"]) == buffer
    n_checks = sum(2 * len(r.history) for r in results.values())
    print(f"\npool conserved exactly in all {n_checks} epoch partitions "
          "(fsum-compensated, == not approx)")

    # --- 3. Shared and lazy arrivals give the same bits ----------------
    shared = simulate_fleet(spec, "harvest", arrivals=fleet_arrivals(spec))
    assert shared.digest() == results["harvest"].digest()
    np.testing.assert_array_equal(results["harvest"].lost, shared.lost)
    print(f"shared vs lazy arrivals digest-identical: {shared.digest()[:16]}...")


if __name__ == "__main__":
    main()
