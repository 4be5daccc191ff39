"""Closed-loop dynamic bandwidth/buffer allocation over competing VBR users.

The control plane the 1994 paper could not run: heterogeneous
self-similar video users share one ``(C, Q)`` pool, and an allocator
re-partitions it every epoch from online observations.  See
``docs/allocation.md`` for the contract, the epoch model and the
determinism rules.
"""

from repro.alloc.allocators import (
    ALLOCATORS,
    HarvestAllocator,
    OracleAllocator,
    StaticAllocator,
    TradeAllocator,
    make_allocator,
)
from repro.alloc.base import (
    Allocation,
    AllocationError,
    AllocatorBase,
    EpochObservation,
    exact_sum,
    partition_exact,
    settle_residue,
)
from repro.alloc.fleet import (
    FleetResult,
    FleetSpec,
    UserSpec,
    demo_fleet,
    fleet_arrivals,
    simulate_fleet,
    user_epoch_seed,
)

__all__ = [
    "ALLOCATORS",
    "Allocation",
    "AllocationError",
    "AllocatorBase",
    "EpochObservation",
    "FleetResult",
    "FleetSpec",
    "HarvestAllocator",
    "OracleAllocator",
    "StaticAllocator",
    "TradeAllocator",
    "UserSpec",
    "demo_fleet",
    "exact_sum",
    "fleet_arrivals",
    "make_allocator",
    "partition_exact",
    "settle_residue",
    "simulate_fleet",
    "user_epoch_seed",
]
