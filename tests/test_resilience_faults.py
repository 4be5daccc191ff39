"""Tests for deterministic fault injection and the hardened stream edges."""

import numpy as np
import pytest

from repro.resilience.faults import (
    FaultPlan,
    FlakyChunkSource,
    TransientFault,
    active_plan,
    reach,
)
from repro.stream.pipeline import ParallelSources
from repro.stream.sources import BlockFGNSource, ChunkSource


class TestFaultPlan:
    def test_fires_at_exact_call(self):
        plan = FaultPlan().fail_at("site", call=3, exc=TransientFault)
        with plan.active():
            reach("site")
            reach("site")
            with pytest.raises(TransientFault):
                reach("site")
            reach("site")  # the fault is consumed; later calls pass
        assert plan.calls("site") == 4
        assert len(plan.injected) == 1
        fault = plan.injected[0]
        assert (fault.site, fault.call_index, fault.error_type) == (
            "site", 3, "TransientFault",
        )

    def test_multiple_faults_per_site(self):
        plan = (
            FaultPlan()
            .fail_at("s", call=1, exc=MemoryError, message="boom 1")
            .fail_at("s", call=2, exc=TimeoutError, message="boom 2")
        )
        with plan.active():
            with pytest.raises(MemoryError, match="boom 1"):
                reach("s")
            with pytest.raises(TimeoutError, match="boom 2"):
                reach("s")
            reach("s")
        assert [f.error_type for f in plan.injected] == ["MemoryError", "TimeoutError"]

    def test_reach_is_noop_without_plan(self):
        assert active_plan() is None
        reach("anything")  # must not raise, must not record

    def test_only_one_active_plan(self):
        with FaultPlan().active():
            with pytest.raises(RuntimeError, match="already active"):
                with FaultPlan().active():
                    pass
        assert active_plan() is None

    def test_plan_deactivated_after_exception(self):
        plan = FaultPlan().fail_at("s", call=1)
        with pytest.raises(TransientFault):
            with plan.active():
                reach("s")
        assert active_plan() is None

    def test_schedule_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.fail_at("s", call=0)
        with pytest.raises(TypeError):
            plan.fail_at("s", exc=TransientFault("instance, not class"))
        plan.fail_at("s", call=1)
        with pytest.raises(ValueError, match="already has a fault"):
            plan.fail_at("s", call=1)


class TestCorruptChunks:
    def chunks(self):
        return [np.ones(64), np.ones(64), np.ones(64)]

    def test_deterministic_under_seed(self):
        a = np.concatenate(list(
            FaultPlan(seed=5).corrupt_chunks(self.chunks(), nan_rate=0.7)
        ))
        b = np.concatenate(list(
            FaultPlan(seed=5).corrupt_chunks(self.chunks(), nan_rate=0.7)
        ))
        np.testing.assert_array_equal(a, b)
        assert np.isnan(a).any()

    def test_nan_and_inf_bursts_recorded(self):
        plan = FaultPlan(seed=1)
        out = list(plan.corrupt_chunks(self.chunks(), nan_rate=1.0, inf_rate=1.0,
                                       burst=4))
        total = np.concatenate(out)
        assert np.isnan(total).any()
        assert np.isinf(total).any()
        kinds = {f.error_type for f in plan.injected}
        assert kinds == {"nan_burst", "inf_burst"}

    def test_truncation(self):
        plan = FaultPlan(seed=2)
        out = list(plan.corrupt_chunks(self.chunks(), truncate_after=100))
        assert sum(c.size for c in out) == 100
        assert any(f.error_type == "truncation" for f in plan.injected)

    def test_no_rates_passthrough(self):
        plan = FaultPlan(seed=3)
        out = np.concatenate(list(plan.corrupt_chunks(self.chunks())))
        np.testing.assert_array_equal(out, np.ones(192))
        assert plan.injected == []


class TestParallelRecovery:
    def build_pools(self):
        sources = [
            BlockFGNSource(0.8, block_size=256, overlap=32) for _ in range(3)
        ]
        flaky = [
            FlakyChunkSource(
                BlockFGNSource(0.8, block_size=256, overlap=32), site=f"src:{i}"
            )
            for i in range(3)
        ]
        return ParallelSources(sources), ParallelSources(flaky)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.Philox], ids=lambda bg: bg.__name__
    )
    def test_recovers_from_worker_death(self, bit_generator):
        # The replayed source must be rebuilt with its child's bit
        # generator type: any other type draws different bytes.
        plain, flaky = self.build_pools()
        baseline = np.concatenate(
            list(plain.chunks(2048, 256, rng=np.random.Generator(bit_generator(6))))
        )
        plan = FaultPlan().fail_at("src:1", call=4, exc=TransientFault)
        with plan.active():
            recovered = np.concatenate(
                list(flaky.chunks(2048, 256, rng=np.random.Generator(bit_generator(6))))
            )
        np.testing.assert_array_equal(recovered, baseline)
        assert len(flaky.recoveries) == 1
        event = flaky.recoveries[0]
        assert event["source"] == 1
        assert event["error_type"] == "TransientFault"

    def test_restart_budget_exhausted_propagates(self):
        _, flaky = self.build_pools()
        plan = (
            FaultPlan()
            .fail_at("src:0", call=1, exc=TransientFault)
            # The replay of 0 delivered chunks lands the retry on call 2.
            .fail_at("src:0", call=2, exc=TransientFault)
        )
        with plan.active():
            with pytest.raises(TransientFault):
                list(flaky.chunks(2048, 256, rng=np.random.default_rng(6)))

    def test_values_unchanged_without_faults(self):
        # The seed-recording spawn must be byte-identical to rng.spawn.
        class _Replay(ChunkSource):
            def _native_chunks(self, n, chunk_size, rng):
                yield np.arange(90.0)

        sources = [_Replay() for _ in range(2)]
        pool = ParallelSources(sources)
        out = np.concatenate(list(pool.chunks(90, 30, rng=np.random.default_rng(0))))
        np.testing.assert_array_equal(out, 2 * np.arange(90.0))
