"""Zig-zag scan ordering of DCT coefficient blocks.

The JPEG-style zig-zag scan reads an ``n x n`` coefficient block in
order of increasing spatial frequency, which groups the (typically
zero) high-frequency coefficients at the end of the vector and makes
run-length coding effective.
"""

from __future__ import annotations

import functools

import numpy as np

from repro._validation import require_positive_int

__all__ = ["zigzag_indices", "zigzag_unscan"]


@functools.lru_cache(maxsize=None)
def zigzag_indices(n=8):
    """Flat indices of the zig-zag scan over an ``n x n`` block.

    Entry ``k`` of the returned array is the flat (row-major) index of
    the ``k``-th coefficient visited.  Diagonals are traversed
    alternately up-right and down-left, starting at the DC coefficient.
    """
    n = require_positive_int(n, "n")
    order = []
    for diag in range(2 * n - 1):
        if diag % 2 == 0:
            # Even diagonal: walk up-right.
            row = min(diag, n - 1)
            col = diag - row
            while row >= 0 and col < n:
                order.append(row * n + col)
                row -= 1
                col += 1
        else:
            # Odd diagonal: walk down-left.
            col = min(diag, n - 1)
            row = diag - col
            while col >= 0 and row < n:
                order.append(row * n + col)
                row += 1
                col -= 1
    return np.asarray(order, dtype=np.intp)


def zigzag_unscan(vector, n=8):
    """Rebuild the square block from its zig-zag ordered vector."""
    vector = np.asarray(vector)
    n = require_positive_int(n, "n")
    if vector.ndim != 1 or vector.size != n * n:
        raise ValueError(f"vector must have length {n * n}, got shape {vector.shape}")
    flat = np.empty(n * n, dtype=vector.dtype)
    flat[zigzag_indices(n)] = vector
    return flat.reshape(n, n)
