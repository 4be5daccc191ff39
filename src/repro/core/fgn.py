"""The fGn synthesis backends by name, and the block stitch they share.

The paper's generator draws a zero-mean Gaussian long-range dependent
path, then maps it onto the Gamma/Pareto marginal (eq. 13).
:data:`FGN_BACKENDS` names the three algorithms that draw the path and
the two properties callers branch on: *exact* (the path has exactly the
fGn autocovariance) and *blockwise* (one O(n log n) FFT over a cached
spectrum per path, so a long path can be built from independent blocks
and many paths stacked into one batch; Hosking's recursion conditions
every point on the whole past, so it cannot).  Every caller that takes
a backend name resolves it here, and :func:`stitch_blocks` joins the
independent blocks of the stream sources.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.hosking import HoskingGenerator
from repro.core.paxson import PaxsonGenerator

__all__ = ["FGNBackend", "FGN_BACKENDS", "fgn_backend", "fgn_generator",
           "blend_weights", "stitch_blocks"]


class FGNBackend(NamedTuple):
    """One row of the backend table."""

    name: str
    cls: type
    exact: bool
    blockwise: bool


FGN_BACKENDS = {
    backend.name: backend
    for backend in (
        FGNBackend("hosking", HoskingGenerator, exact=True, blockwise=False),
        FGNBackend("davies-harte", DaviesHarteGenerator, exact=True, blockwise=True),
        FGNBackend("paxson", PaxsonGenerator, exact=False, blockwise=True),
    )
}


def _either(names):
    """``"a"``, ``"a or b"``, ``"a, b or c"``."""
    *rest, last = names
    return f"{', '.join(rest)} or {last}" if rest else last


def fgn_backend(name, *, exact=False, blockwise=False):
    """The table row for ``name``; ``exact``/``blockwise`` demand that property.

    Any other name, or a row lacking a demanded property, raises a
    one-line ``ValueError`` naming the backends that would do.
    """
    backend = FGN_BACKENDS.get(name) if isinstance(name, str) else None
    if backend is None:
        raise ValueError(f"unknown fGn backend {name!r}; expected {_either(FGN_BACKENDS)}")
    for need, demanded in (("exact", exact), ("blockwise", blockwise)):
        if demanded and not getattr(backend, need):
            fits = [b.name for b in FGN_BACKENDS.values() if getattr(b, need)]
            raise ValueError(f"fGn backend {name!r} is not {need}; expected {_either(fits)}")
    return backend


def fgn_generator(name, hurst, variance=1.0, *, exact=False, blockwise=False):
    """A fresh generator of backend ``name`` (see :func:`fgn_backend`)."""
    backend = fgn_backend(name, exact=exact, blockwise=blockwise)
    return backend.cls(hurst, variance=variance)


def blend_weights(overlap):
    """The seam cross-fade weights ``(w_old, w_new)``.

    ``w_old = cos(pi t / 2)``, ``w_new = sin(pi t / 2)`` on the interior
    grid ``t = (1..overlap) / (overlap + 1)``, so ``w_old^2 + w_new^2 = 1``
    and blending two independent Gaussians preserves the variance.
    """
    t = np.arange(1, int(overlap) + 1, dtype=float) / (int(overlap) + 1)
    return np.cos(0.5 * np.pi * t), np.sin(0.5 * np.pi * t)


def stitch_blocks(raws, overlap):
    """Join raw blocks, yielding one kept head per block, lazily.

    Each raw block carries ``overlap`` surplus samples: its first
    ``raw.size - overlap`` are kept, and their first ``overlap`` (fewer
    when the kept part is shorter) are cross-faded with the previous
    block's surplus tail.  One raw block is pulled per head yielded.
    """
    w_old, w_new = blend_weights(overlap)
    tail = None
    for raw in raws:
        length = raw.size - overlap
        head = raw[:length].copy()
        if tail is not None and overlap:
            b = min(overlap, length)
            head[:b] = w_old[:b] * tail[:b] + w_new[:b] * head[:b]
        tail = raw[length:]
        yield head
