"""Two-dimensional Discrete Cosine Transform on 8x8 blocks.

The paper's codec partitions each frame into 8x8 pel blocks and
computes a DCT on each (the JPEG transform).  The orthonormal DCT-II
matrix is built from first principles; the 2-D transform of a block
``B`` is ``C @ B @ C.T`` and the inverse is ``C.T @ A @ C``.  Whole
frames are transformed block-wise with one einsum, which keeps the
Python-level cost independent of the number of blocks.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive_int

__all__ = [
    "dct_matrix",
    "blockwise_dct",
    "blockwise_idct",
    "block_view",
    "unblock_view",
]


def dct_matrix(n=8):
    """Orthonormal DCT-II matrix of size ``n x n``.

    ``C[k, j] = alpha_k * cos(pi (2j + 1) k / (2n))`` with
    ``alpha_0 = sqrt(1/n)`` and ``alpha_k = sqrt(2/n)`` otherwise.
    The matrix is orthogonal: ``C @ C.T == I``.
    """
    n = require_positive_int(n, "n")
    k = np.arange(n).reshape(-1, 1)
    j = np.arange(n).reshape(1, -1)
    c = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    c *= np.sqrt(2.0 / n)
    c[0, :] = np.sqrt(1.0 / n)
    return c


def block_view(image, block_size=8):
    """Reshape ``(H, W)`` into ``(H/b, W/b, b, b)`` blocks.

    Raises if the image dimensions are not multiples of the block
    size -- the codec pads frames before calling this.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {image.shape}")
    h, w = image.shape
    b = require_positive_int(block_size, "block_size")
    if h % b or w % b:
        raise ValueError(f"image dimensions {image.shape} are not multiples of {b}")
    return image.reshape(h // b, b, w // b, b).swapaxes(1, 2)


def unblock_view(blocks):
    """Inverse of :func:`block_view`: ``(nbh, nbw, b, b) -> (H, W)``."""
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
        raise ValueError(f"blocks must have shape (nbh, nbw, b, b), got {blocks.shape}")
    nbh, nbw, b, _ = blocks.shape
    return blocks.swapaxes(1, 2).reshape(nbh * b, nbw * b)


def blockwise_dct(image, block_size=8, matrix=None):
    """DCT of every ``block_size`` block of an image at once.

    Returns an array of shape ``(H/b, W/b, b, b)`` of coefficients.
    """
    if matrix is None:
        matrix = dct_matrix(block_size)
    blocks = block_view(image, block_size)
    # C @ B @ C.T for every block: contract the pel axes with einsum.
    return np.einsum("ij,hwjk,lk->hwil", matrix, blocks, matrix, optimize=True)


def blockwise_idct(coeff_blocks, matrix=None):
    """Inverse DCT of every coefficient block; returns the image."""
    coeff_blocks = np.asarray(coeff_blocks, dtype=float)
    if coeff_blocks.ndim != 4:
        raise ValueError(f"coeff_blocks must be 4-D, got shape {coeff_blocks.shape}")
    if matrix is None:
        matrix = dct_matrix(coeff_blocks.shape[2])
    blocks = np.einsum("ji,hwjk,kl->hwil", matrix, coeff_blocks, matrix, optimize=True)
    return unblock_view(blocks)
