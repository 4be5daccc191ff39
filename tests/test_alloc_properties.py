"""Tier-1 property wall for :mod:`repro.alloc`.

Five properties pin the allocator contract on seeded fleets, exactly --
not statistically:

- **conservation**: after *every* epoch, ``exact_sum(C_i) == C`` and
  ``exact_sum(Q_i) == Q`` bit-for-bit (the compensated partition);
- **feasibility**: every grant finite, capacities positive, buffers
  non-negative, at every epoch;
- **monotonicity**: the harvest policy never takes capacity or buffer
  from a user currently violating its QoS target -- not even a
  compensation ulp;
- **oracle dominance**: the clairvoyant allocator's fleet-total loss
  lower-bounds every causal policy on the same seeded fleet;
- **determinism**: a run on lazily synthesized arrivals and a run on
  the shared :func:`~repro.alloc.fleet_arrivals` set give one digest.

Plus exact unit coverage for the float machinery
(:func:`~repro.alloc.exact_sum`, :func:`~repro.alloc.partition_exact`,
:func:`~repro.alloc.settle_residue`) including the round-to-even-tie
pathology that motivated the fsum-based conservation contract.
"""

import numpy as np
import pytest

from repro.alloc import (
    ALLOCATORS,
    Allocation,
    AllocationError,
    EpochObservation,
    HarvestAllocator,
    OracleAllocator,
    StaticAllocator,
    TradeAllocator,
    demo_fleet,
    exact_sum,
    fleet_arrivals,
    make_allocator,
    partition_exact,
    settle_residue,
    simulate_fleet,
    user_epoch_seed,
)
from repro.alloc.allocators import _absorb_residue

CAUSAL = ("static", "harvest", "trade")


@pytest.fixture(scope="module")
def fleet():
    """One small heterogeneous fleet shared by the property tests."""
    return demo_fleet(16, epoch_slots=60, n_epochs=8, utilization=0.7,
                      buffer_slots=12.0, seed=11)


@pytest.fixture(scope="module")
def histories(fleet):
    """Every allocator run over the shared fleet with history recorded."""
    return {
        name: simulate_fleet(fleet, name, record_history=True)
        for name in sorted(ALLOCATORS)
    }


class TestConservation:
    def test_every_epoch_conserves_capacity_and_buffer_exactly(self, fleet, histories):
        capacity, buffer = fleet.resolved_totals()
        for name, result in histories.items():
            assert result.history, name
            for entry in result.history:
                for key in ("capacity_before", "capacity_after"):
                    assert exact_sum(entry[key]) == capacity, (name, entry["epoch"], key)
                for key in ("buffer_before", "buffer_after"):
                    assert exact_sum(entry[key]) == buffer, (name, entry["epoch"], key)

    def test_final_allocation_conserves(self, fleet, histories):
        capacity, buffer = fleet.resolved_totals()
        for name, result in histories.items():
            assert exact_sum(result.final_capacity) == capacity, name
            assert exact_sum(result.final_buffer) == buffer, name


class TestFeasibility:
    def test_no_epoch_emits_nan_negative_or_zero_grants(self, histories):
        for name, result in histories.items():
            for entry in result.history:
                for key in ("capacity_before", "capacity_after"):
                    grants = entry[key]
                    assert np.all(np.isfinite(grants)), (name, key)
                    assert np.all(grants > 0.0), (name, key)
                for key in ("buffer_before", "buffer_after"):
                    grants = entry[key]
                    assert np.all(np.isfinite(grants)), (name, key)
                    assert np.all(grants >= 0.0), (name, key)

    def test_validate_rejects_infeasible_allocations(self):
        good_c = partition_exact(np.ones(4), 100.0)
        good_q = partition_exact(np.ones(4), 40.0)
        Allocation(good_c, good_q).validate(100.0, 40.0)
        with pytest.raises(AllocationError, match="1-D arrays"):
            Allocation(good_c, good_q[:3]).validate(100.0, 40.0)
        bad = good_c.copy()
        bad[0] = np.nan
        with pytest.raises(AllocationError, match="NaN or infinite"):
            Allocation(bad, good_q).validate(100.0, 40.0)
        bad = good_c.copy()
        bad[0] = -bad[0]
        with pytest.raises(AllocationError, match="strictly positive"):
            Allocation(bad, good_q).validate(100.0, 40.0)
        bad = good_q.copy()
        bad[0] = -1.0
        with pytest.raises(AllocationError, match="non-negative"):
            Allocation(good_c, bad).validate(100.0, 40.0)
        with pytest.raises(AllocationError, match="capacity not conserved"):
            Allocation(good_c, good_q).validate(101.0, 40.0)
        with pytest.raises(AllocationError, match="buffer not conserved"):
            Allocation(good_c, good_q).validate(100.0, 41.0)


class TestHarvestMonotonicity:
    def test_violators_never_lose_capacity_or_buffer(self, histories):
        entries = histories["harvest"].history
        assert any(entry["violating"].any() for entry in entries)
        for entry in entries:
            violating = entry["violating"]
            assert np.all(entry["capacity_after"][violating]
                          >= entry["capacity_before"][violating]), entry["epoch"]
            assert np.all(entry["buffer_after"][violating]
                          >= entry["buffer_before"][violating]), entry["epoch"]

    def test_absorb_residue_protects_the_restricted_side(self):
        # Regression for the round-to-even-tie pathology: a single
        # eligible donor in total's own binade cannot express the target
        # on its own lattice; the fallback must still conserve exactly
        # without ever shrinking a protected share.
        total = 88.56886416650097
        values = np.array([12.237681921010275, 68.07716974782727, 8.254012497663435])
        eligible = np.array([False, True, False])
        protected_before = values[~eligible].copy()
        _absorb_residue(values, total, eligible)
        assert exact_sum(values) == total
        assert np.all(values[~eligible] >= protected_before)


class TestOracleDominance:
    def test_oracle_total_loss_lower_bounds_every_causal_policy(self, histories):
        oracle = histories["oracle"].total_loss_rate
        for name in CAUSAL:
            assert oracle <= histories[name].total_loss_rate, name

    def test_closed_loop_beats_static_p99(self, histories):
        static_p99 = histories["static"].loss_percentiles()["p99"]
        assert histories["harvest"].loss_percentiles()["p99"] < static_p99
        assert histories["trade"].loss_percentiles()["p99"] < static_p99


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_lazy_and_shared_arrivals_share_the_digest(self, fleet, name):
        shared = simulate_fleet(fleet, name, arrivals=fleet_arrivals(fleet))
        assert shared.digest() == simulate_fleet(fleet, name).digest(), name

    def test_user_epoch_seeds_are_unique_and_stable(self):
        seeds = {user_epoch_seed(3, u, e) for u in range(8) for e in range(8)}
        assert len(seeds) == 64
        assert user_epoch_seed(3, 2, 5) == user_epoch_seed(3, 2, 5)
        assert user_epoch_seed(3, 2, 5) != user_epoch_seed(4, 2, 5)


class TestFloatMachinery:
    def test_exact_sum_is_order_independent(self):
        rng = np.random.default_rng(0)
        values = rng.random(257) * 10.0 ** rng.integers(-6, 7, size=257)
        assert exact_sum(values) == exact_sum(values[::-1])
        assert exact_sum(values) == exact_sum(rng.permutation(values))

    def test_partition_exact_is_proportional_and_exact(self):
        out = partition_exact(np.array([1.0, 2.0, 3.0]), 600.0)
        np.testing.assert_allclose(out, [100.0, 200.0, 300.0], rtol=1e-12)
        assert exact_sum(out) == 600.0

    def test_partition_exact_floor_and_zero_weights(self):
        out = partition_exact(np.zeros(4), 100.0, floor=10.0)
        np.testing.assert_allclose(out, 25.0)
        assert exact_sum(out) == 100.0
        out = partition_exact(np.array([0.0, 0.0, 1.0]), 90.0, floor=10.0)
        assert out[0] >= 10.0 - 1e-9 and out[1] >= 10.0 - 1e-9
        assert exact_sum(out) == 90.0

    def test_partition_exact_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            partition_exact(np.array([]), 1.0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            partition_exact(np.array([1.0, -2.0]), 1.0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            partition_exact(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError, match="total"):
            partition_exact(np.ones(3), 0.0)
        with pytest.raises(ValueError, match="floor"):
            partition_exact(np.ones(3), 1.0, floor=-0.1)
        with pytest.raises(ValueError, match="infeasible"):
            partition_exact(np.ones(3), 1.0, floor=10.0)

    def test_settle_residue_lands_exactly_on_awkward_shares(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            v = rng.random(n) * 10.0 ** rng.integers(-3, 7)
            total = float(np.sum(v)) * float(rng.uniform(0.9, 1.1))
            w = v * (total / float(np.sum(v)))
            settle_residue(w, total)
            assert exact_sum(w) == total


class TestAllocatorConstruction:
    def test_make_allocator_registry(self):
        assert set(ALLOCATORS) == {"static", "oracle", "harvest", "trade"}
        for name, cls in (("static", StaticAllocator), ("oracle", OracleAllocator),
                          ("harvest", HarvestAllocator), ("trade", TradeAllocator)):
            assert isinstance(make_allocator(name, 100.0, 50.0, 4), cls)
        with pytest.raises(ValueError, match="unknown allocator"):
            make_allocator("bogus", 100.0, 50.0, 4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_users"):
            StaticAllocator(100.0, 50.0, 0)
        with pytest.raises(ValueError, match="qos_loss"):
            StaticAllocator(100.0, 50.0, 4, qos_loss=1.5)
        with pytest.raises(ValueError, match="one entry per user"):
            StaticAllocator(100.0, 50.0, 4, weights=np.ones(3))

    def test_initial_allocation_respects_weights_and_conserves(self):
        policy = StaticAllocator(120.0, 60.0, 3, weights=np.array([1.0, 2.0, 3.0]))
        alloc = policy.initial_allocation()
        assert exact_sum(alloc.capacity) == 120.0
        assert exact_sum(alloc.buffer) == 60.0
        assert alloc.capacity[0] < alloc.capacity[1] < alloc.capacity[2]

    def test_step_rejects_a_leaky_decision(self):
        class Leaky(StaticAllocator):
            def decide(self, epoch_index, observation, current, epoch_seed):
                capacity = current.capacity.copy()
                capacity[0] += 1.0
                return Allocation(capacity, current.buffer)

        policy = Leaky(100.0, 50.0, 4)
        alloc = policy.initial_allocation()
        obs = EpochObservation(
            epoch_slots=10, offered=np.ones(4), lost=np.zeros(4),
            backlog=np.zeros(4), peak_backlog=np.zeros(4),
        )
        with pytest.raises(AllocationError, match="not conserved"):
            policy.step(0, obs, alloc, epoch_seed=1)

    def test_loss_rate_handles_zero_offered(self):
        obs = EpochObservation(
            epoch_slots=10, offered=np.array([0.0, 100.0]),
            lost=np.array([0.0, 5.0]), backlog=np.zeros(2),
            peak_backlog=np.zeros(2),
        )
        np.testing.assert_allclose(obs.loss_rate(), [0.0, 0.05])
