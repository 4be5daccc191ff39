"""Tier-2 seeded fuzz for :mod:`repro.alloc`: random fleet mixes.

Tier-1 pins the allocator contract on one fixed demo fleet; this
module re-asserts the *exact* invariants -- conservation, feasibility,
harvest monotonicity, one digest on lazy and shared arrivals -- over
randomized fleet compositions (user mixes, Hurst exponents, rates, epoch
geometry, pool sizing) drawn from the rotating ``--qa-seed``.  Every
assertion is bit-exact, so these must pass for any seed; there is no
statistical alpha to budget.

Oracle dominance is deliberately *not* fuzzed: the clairvoyant
allocator optimizes greedily epoch by epoch, which lower-bounds the
causal policies on the pinned fleets tier-1 certifies but is not a
theorem over arbitrary fleets (on ~2% of random mixes a causal policy
edges it out by stranding less backlog across a buffer re-partition).
"""

import numpy as np
import pytest

from repro.alloc import (
    FleetSpec,
    UserSpec,
    exact_sum,
    fleet_arrivals,
    simulate_fleet,
)

pytestmark = pytest.mark.tier2

N_FLEETS = 6


def _random_fleet(rng):
    """One random heterogeneous fleet spec."""
    users = []
    n_users = int(rng.integers(4, 24))
    for _ in range(n_users):
        kind = rng.choice(["video", "video", "cbr", "data"])
        mean = float(rng.uniform(300.0, 4_000.0))
        if kind == "video":
            users.append(UserSpec(
                kind="video", mean=mean,
                std=mean * float(rng.uniform(0.2, 0.8)),
                hurst=float(rng.uniform(0.6, 0.9)),
            ))
        elif kind == "cbr":
            users.append(UserSpec(kind="cbr", mean=mean))
        else:
            users.append(UserSpec(
                kind="data", mean=mean,
                duty=float(rng.uniform(0.1, 0.5)),
                burst_slots=float(rng.uniform(2.0, 16.0)),
            ))
    return FleetSpec(
        users=users,
        epoch_slots=int(rng.integers(20, 80)),
        n_epochs=int(rng.integers(3, 10)),
        utilization=float(rng.uniform(0.6, 0.95)),
        buffer_slots=float(rng.uniform(2.0, 16.0)),
        qos_loss=float(rng.choice([1e-3, 1e-2])),
        seed=int(rng.integers(2**31)),
    )


def test_random_fleets_conserve_and_stay_feasible(seeded_rng):
    for _ in range(N_FLEETS):
        spec = _random_fleet(seeded_rng)
        capacity, buffer = spec.resolved_totals()
        for name in ("static", "harvest", "trade", "oracle"):
            result = simulate_fleet(spec, name, record_history=True)
            for entry in result.history:
                for key in ("capacity_before", "capacity_after"):
                    assert exact_sum(entry[key]) == capacity, (name, key)
                    assert np.all(np.isfinite(entry[key])), (name, key)
                    assert np.all(entry[key] > 0.0), (name, key)
                for key in ("buffer_before", "buffer_after"):
                    assert exact_sum(entry[key]) == buffer, (name, key)
                    assert np.all(np.isfinite(entry[key])), (name, key)
                    assert np.all(entry[key] >= 0.0), (name, key)


def test_random_fleets_keep_harvest_monotone(seeded_rng):
    for _ in range(N_FLEETS):
        spec = _random_fleet(seeded_rng)
        result = simulate_fleet(spec, "harvest", record_history=True)
        for entry in result.history:
            violating = entry["violating"]
            assert np.all(entry["capacity_after"][violating]
                          >= entry["capacity_before"][violating])
            assert np.all(entry["buffer_after"][violating]
                          >= entry["buffer_before"][violating])


def test_random_fleets_share_the_digest_on_shared_arrivals(seeded_rng):
    for _ in range(3):
        spec = _random_fleet(seeded_rng)
        name = str(seeded_rng.choice(["static", "harvest", "trade", "oracle"]))
        shared = simulate_fleet(spec, name, arrivals=fleet_arrivals(spec))
        assert shared.digest() == simulate_fleet(spec, name).digest(), name


def test_random_fleet_digests_are_stable_under_rerun(seeded_rng):
    for _ in range(3):
        spec = _random_fleet(seeded_rng)
        name = str(seeded_rng.choice(["static", "harvest", "trade", "oracle"]))
        first = simulate_fleet(spec, name)
        again = simulate_fleet(spec, name)
        assert first.digest() == again.digest()
        np.testing.assert_array_equal(first.lost, again.lost)
