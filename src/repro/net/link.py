"""Links: directed capacity + propagation delay between two nodes.

A link carries the fluid served by its source port.  Capacity is
expressed in bytes per slot (the same unit as the trace series and the
single-queue simulator); propagation delay is an integer number of
slots.  Fluid served during slot ``t`` joins the downstream queue at
slot ``t + 1 + delay_slots`` -- the ``+ 1`` is store-and-forward at
slot granularity: a byte cannot be served upstream and downstream
within the same slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._validation import require_nonnegative_int, require_positive

__all__ = ["Link"]


@dataclass(frozen=True)
class Link:
    """One directed link of the topology."""

    src: str
    """Name of the upstream node (the queue lives at its output port)."""

    dst: str
    """Name of the downstream node."""

    capacity_per_slot: float
    """Service capacity in bytes per slot."""

    delay_slots: int = 0
    """Propagation delay in whole slots (>= 0)."""

    def __post_init__(self):
        if not self.src or not self.dst:
            raise ValueError("link src and dst must be non-empty node names")
        if self.src == self.dst:
            raise ValueError(f"link cannot loop back to its own node {self.src!r}")
        object.__setattr__(
            self, "capacity_per_slot",
            require_positive(self.capacity_per_slot, "capacity_per_slot"),
        )
        object.__setattr__(
            self, "delay_slots",
            require_nonnegative_int(self.delay_slots, "delay_slots"),
        )

    @property
    def name(self):
        """Stable identifier used for ports and metrics (``src->dst``)."""
        return f"{self.src}->{self.dst}"

    @property
    def latency_slots(self):
        """Slots between upstream service and downstream arrival."""
        return 1 + self.delay_slots
