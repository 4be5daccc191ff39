"""Chunked Gaussian sample sources for the streaming pipeline.

A *chunk source* emits a zero-mean Gaussian realization as a sequence
of numpy arrays instead of one big array.  Two sources are provided:

- :class:`HoskingSource` -- the paper's exact fARIMA(0, d, 0) process,
  resumed chunk-by-chunk through
  :meth:`~repro.core.hosking.HoskingGenerator.extend`.  Exact, but the
  Durbin-Levinson state grows as O(total samples) and each chunk costs
  O(chunk * total): right for moderate exact runs, wrong for unbounded
  ones.
- :class:`BlockFGNSource` -- constant-memory approximate fGn for
  arbitrarily long runs.  Fixed-size blocks come from an exact
  Davies-Harte or approximate Paxson synthesizer (both O(B log B) per
  block with cached spectra) and consecutive blocks are stitched over
  an ``overlap`` window with complementary ``cos/sin`` weights, which
  preserves the Gaussian marginal exactly (``cos^2 + sin^2 = 1``)
  while fading one block into the next.  Correlation is exact within a
  block and approximate across the seam -- the same trade Paxson makes
  globally -- so choose ``block_size`` well above the correlation
  scales that matter.

All sources share the :meth:`ChunkSource.chunks` iteration contract,
which the :class:`repro.stream.pipeline.Stream` abstraction builds on.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._validation import require_positive_int
from repro.core.fgn import blend_weights, fgn_backend, fgn_generator, stitch_blocks
from repro.core.hosking import HoskingGenerator

__all__ = [
    "ChunkSource",
    "HoskingSource",
    "BlockFGNSource",
    "blend_weights",
    "make_source",
]


def _rechunk(pieces, chunk_size, n=None):
    """Re-slice an iterable of arrays into ``chunk_size``-sample chunks.

    Stops after ``n`` samples when ``n`` is given, pulling a piece only
    while the chunk being built is short of samples, so no piece past
    the last one needed is drawn.  The last chunk may be short.
    """
    pieces = iter(pieces)
    pending = []
    pending_size = 0
    emitted = 0
    while n is None or emitted < n:
        want = chunk_size if n is None else min(chunk_size, n - emitted)
        while pending_size < want:
            piece = next(pieces, None)
            if piece is None:
                break
            piece = np.asarray(piece, dtype=float)
            if piece.size:
                pending.append(piece)
                pending_size += piece.size
        if not pending_size:
            return
        merged = pending[0] if len(pending) == 1 else np.concatenate(pending)
        take = min(want, pending_size)
        yield merged[:take]
        rest = merged[take:]
        pending = [rest] if rest.size else []
        pending_size = rest.size
        emitted += take


class ChunkSource:
    """Base class: iterate a realization as fixed-size chunks.

    Subclasses implement :meth:`_native_chunks`, yielding arrays in
    whatever block size is natural for the algorithm (possibly forever);
    the base class re-slices that into exactly ``chunk_size``-sample
    chunks totalling ``n``.
    """

    def _native_chunks(self, n, chunk_size, rng):
        """Yield arrays in the algorithm's natural block size."""
        raise NotImplementedError

    def chunks(self, n, chunk_size, rng=None):
        """Yield ``ceil(n / chunk_size)`` chunks totalling ``n`` samples."""
        n = require_positive_int(n, "n")
        chunk_size = require_positive_int(chunk_size, "chunk_size")
        if rng is None:
            rng = np.random.default_rng()
        return _rechunk(self._native_chunks(n, chunk_size, rng), chunk_size, n)


class HoskingSource(ChunkSource):
    """Exact fARIMA(0, d, 0) chunk source (resumable Hosking recursion).

    Each ``chunks()`` call starts a fresh realization.  Under a fixed
    seed the concatenated chunks are byte-identical to
    :func:`repro.core.hosking.hosking_farima` of the same total length,
    for *any* chunking (numpy's Gaussian stream is split-invariant).
    """

    def __init__(self, hurst=None, d=None, variance=1.0):
        self._generator = HoskingGenerator(hurst=hurst, d=d, variance=variance)
        self.hurst = self._generator.hurst
        self.variance = self._generator.variance

    def _native_chunks(self, n, chunk_size, rng):
        # The recursion resumes one chunk at a time, so each native
        # piece is exactly the chunk the caller asked for.
        self._generator.reset()
        for start in range(0, n, chunk_size):
            yield self._generator.extend(min(chunk_size, n - start), rng=rng)

    def __repr__(self):
        return f"HoskingSource(hurst={self.hurst:.4g}, variance={self.variance:.4g})"


class BlockFGNSource(ChunkSource):
    """Constant-memory approximate fGn source via overlapped blocks.

    Parameters
    ----------
    hurst:
        Hurst parameter in (0, 1).
    variance:
        Marginal variance of the noise.
    block_size:
        Samples emitted per underlying synthesis (memory and seam
        spacing; correlation is exact within a block).
    overlap:
        Width of the cross-fade window joining consecutive blocks
        (must be < ``block_size``).
    backend:
        A blockwise backend of :mod:`repro.core.fgn`:
        ``"davies-harte"`` (exact per block) or ``"paxson"``
        (approximate per block, about half the FFT work).

    Memory is O(block_size + overlap) regardless of run length; both
    backends cache their spectral profile for the fixed block size, so
    the steady-state cost is one FFT per ``block_size`` samples.
    """

    def __init__(self, hurst, variance=1.0, block_size=65_536, overlap=1_024,
                 backend="paxson"):
        self.block_size = require_positive_int(block_size, "block_size")
        self.overlap = int(overlap)
        if not 0 <= self.overlap < self.block_size:
            raise ValueError(
                f"overlap must lie in [0, block_size), got {overlap!r} with "
                f"block_size {self.block_size}"
            )
        self._generator = fgn_generator(backend, hurst, variance, blockwise=True)
        self.backend = backend
        self.hurst = self._generator.hurst
        self.variance = self._generator.variance

    def _native_chunks(self, n, chunk_size, rng):
        raw_len = self.block_size + self.overlap
        raws = (self._generator.generate(raw_len, rng=rng) for _ in itertools.count())
        return stitch_blocks(raws, self.overlap)

    def __repr__(self):
        return (
            f"BlockFGNSource(hurst={self.hurst:.4g}, variance={self.variance:.4g}, "
            f"block_size={self.block_size}, overlap={self.overlap}, "
            f"backend={self.backend!r})"
        )


def make_source(backend, hurst=0.8, variance=1.0, block_size=65_536, overlap=1_024):
    """Build a chunk source by :mod:`repro.core.fgn` backend name.

    A blockwise backend (``"davies-harte"``, ``"paxson"``) gives a
    constant-memory :class:`BlockFGNSource`; ``"hosking"`` the exact
    resumable :class:`HoskingSource`.
    """
    if fgn_backend(backend).blockwise:
        return BlockFGNSource(
            hurst, variance=variance, block_size=block_size, overlap=overlap,
            backend=backend,
        )
    return HoskingSource(hurst=hurst, variance=variance)
