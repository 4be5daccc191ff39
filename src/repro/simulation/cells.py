"""Cell-level (ATM) arrival modeling.

The paper's simulations operate on *cells*: each frame's (or slice's)
bytes are packetized into fixed-payload cells which arrive spread over
the frame interval -- "in no case do all the cells of a frame arrive
together", because a real coder is pipelined.  Both spacings the paper
examines are implemented:

- ``"uniform"``: cells are spaced evenly over the unit's sub-slots;
- ``"random"``: each cell lands in an independently uniform sub-slot.

The paper (long version) found the choice barely matters and that
slice- vs frame-granularity changes little.  For this implementation,
``tests/test_ablations_extensions.py::TestExtensions::test_cell_level_validation``
checks that both spacings reproduce the byte-fluid loss rate on a
40,000-frame trace and agree with each other, justifying the
byte-fluid model used by the Q-C machinery.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.video.trace import VBRTrace

__all__ = ["CELL_PAYLOAD_BYTES", "packetize", "cell_arrivals", "simulate_cell_queue"]

CELL_PAYLOAD_BYTES = 48
"""ATM cell payload (the paper's network is ATM-oriented)."""


def packetize(series_bytes, cell_payload=CELL_PAYLOAD_BYTES):
    """Cells per unit: ``ceil(bytes / payload)`` element-wise."""
    arr = np.asarray(series_bytes, dtype=float)
    if np.any(arr < 0):
        raise ValueError("byte counts must be non-negative")
    cell_payload = require_positive(cell_payload, "cell_payload")
    return np.ceil(arr / cell_payload).astype(np.int64)


def cell_arrivals(
    trace,
    unit="frame",
    subslots=30,
    spacing="uniform",
    cell_payload=CELL_PAYLOAD_BYTES,
    rng=None,
):
    """Cell arrival counts on a fine time grid.

    Each frame (or slice) is divided into ``subslots`` equal sub-slots
    and its cells are distributed across them.  Returns an integer
    array of length ``n_units * subslots`` (cells per sub-slot).

    Parameters
    ----------
    trace:
        A :class:`~repro.video.trace.VBRTrace`.
    unit:
        ``"frame"`` or ``"slice"`` -- the packetization granularity.
    subslots:
        Sub-slots per unit (the effective cell-clock resolution).
    spacing:
        ``"uniform"`` spreads cells evenly (pipelined coder);
        ``"random"`` scatters each cell independently.
    """
    if not isinstance(trace, VBRTrace):
        raise TypeError("trace must be a VBRTrace")
    subslots = require_positive_int(subslots, "subslots")
    if spacing not in ("uniform", "random"):
        raise ValueError(f'spacing must be "uniform" or "random", got {spacing!r}')
    cells = packetize(trace.series(unit), cell_payload)
    n_units = cells.size
    if spacing == "uniform":
        base = cells // subslots
        remainder = cells % subslots
        grid = np.tile(base[:, None], (1, subslots))
        # Spread the remainder over the first `remainder` sub-slots.
        ramp = np.arange(subslots)[None, :]
        grid += ramp < remainder[:, None]
    else:
        if rng is None:
            rng = np.random.default_rng()
        grid = rng.multinomial(cells, np.full(subslots, 1.0 / subslots))
    return grid.reshape(n_units * subslots)


def simulate_cell_queue(
    trace,
    capacity_bps,
    buffer_cells,
    unit="frame",
    subslots=30,
    spacing="uniform",
    cell_payload=CELL_PAYLOAD_BYTES,
    rng=None,
):
    """Finite-buffer FIFO at cell granularity.

    ``capacity_bps`` is converted to cells per sub-slot (fractional
    service is carried over, i.e. the server is a fluid of cells);
    loss is counted in cells.  Returns the
    :class:`~repro.simulation.queue.QueueResult` (quantities in cells).
    """
    from repro.simulation.queue import simulate_queue

    capacity_bps = require_positive(capacity_bps, "capacity_bps")
    arrivals = cell_arrivals(
        trace, unit=unit, subslots=subslots, spacing=spacing,
        cell_payload=cell_payload, rng=rng,
    )
    unit_seconds = trace.time_unit_ms(unit) / 1000.0
    subslot_seconds = unit_seconds / subslots
    cells_per_subslot = capacity_bps / 8.0 / cell_payload * subslot_seconds
    return simulate_queue(arrivals.astype(float), cells_per_subslot, float(buffer_cells))
