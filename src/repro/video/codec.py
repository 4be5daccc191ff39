"""The intraframe VBR video codec (Section 2 of the paper).

Pipeline per frame (essentially JPEG, as the paper notes):

1. partition the (monochrome, 8 bit/pel) frame into 8x8 blocks;
2. DCT each block;
3. uniformly quantize the coefficients with a *fixed* step size
   (constant quality, variable rate);
4. zig-zag scan, run-length code, and Huffman code the result.

The quantizer step is fixed for the whole movie, so the byte count per
frame varies with picture complexity -- this is the VBR bandwidth
process the paper studies.  Frames are divided into ``slices_per_frame``
slices (groups of blocks) whose byte counts give the finer-grained
series of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.video.bitstream import BitReader, pack_bits
from repro.video.dct import blockwise_dct, blockwise_idct, dct_matrix
from repro.video.huffman import HuffmanCode
from repro.video.quantize import dequantize, quantize
from repro.video.rle import rle_decode_block, rle_encode_blocks, rle_symbol
from repro.video.trace import VBRTrace
from repro.video.zigzag import zigzag_indices, zigzag_unscan

__all__ = ["IntraframeCodec", "EncodedFrame"]


@dataclass
class EncodedFrame:
    """One coded frame: bitstream, entropy table and layout metadata."""

    bitstream: bytes
    """The Huffman/amplitude bitstream for the entire frame."""

    huffman: HuffmanCode
    """The frame's Huffman table (built from its own statistics)."""

    block_symbol_counts: list
    """Number of RLE symbols in each block, in raster order."""

    slice_bytes: np.ndarray
    """Coded bytes attributed to each slice of the frame."""

    frame_shape: tuple
    """Original (unpadded) frame shape ``(height, width)``."""

    padded_shape: tuple
    """Frame shape after padding to a block multiple."""

    total_bits: int
    """Exact payload size in bits (before byte rounding)."""

    @property
    def total_bytes(self):
        """Total coded bytes for the frame (sum of slice bytes)."""
        return int(self.slice_bytes.sum())


class IntraframeCodec:
    """DCT / run-length / Huffman intraframe coder.

    Parameters
    ----------
    quant_step:
        Uniform quantizer step size applied to all DCT coefficients.
        The paper fixes this for the entire movie; smaller steps give
        higher quality and higher bandwidth.
    block_size:
        DCT block size (8, as in JPEG and the paper).
    slices_per_frame:
        How many slices each frame is partitioned into (paper: 30).
        Blocks are assigned to slices in contiguous raster-order runs.
    """

    def __init__(self, quant_step=16.0, block_size=8, slices_per_frame=30):
        self.quant_step = require_positive(quant_step, "quant_step")
        self.block_size = require_positive_int(block_size, "block_size")
        self.slices_per_frame = require_positive_int(slices_per_frame, "slices_per_frame")
        self._dct_matrix = dct_matrix(self.block_size)

    # ------------------------------------------------------------------
    # Frame-level encode / decode
    # ------------------------------------------------------------------
    def _pad(self, frame):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError(f"frame must be 2-D monochrome, got shape {frame.shape}")
        if frame.shape[0] < 1 or frame.shape[1] < 1:
            raise ValueError(f"frame must be non-empty, got shape {frame.shape}")
        b = self.block_size
        pad_h = (-frame.shape[0]) % b
        pad_w = (-frame.shape[1]) % b
        if pad_h or pad_w:
            frame = np.pad(frame, ((0, pad_h), (0, pad_w)), mode="edge")
        return frame

    def encode_frame(self, frame):
        """Encode one frame; returns an :class:`EncodedFrame`.

        The frame is any 2-D array of pel values (conventionally uint8,
        0-255).  The bitstream is genuinely decodable via
        :meth:`decode_frame`.
        """
        original_shape = np.asarray(frame).shape
        padded = self._pad(frame)
        # Center pel values so the DC coefficient is small, as JPEG does.
        coeffs = blockwise_dct(padded - 128.0, self.block_size, matrix=self._dct_matrix)
        levels = quantize(coeffs, self.quant_step)
        b = self.block_size
        vectors = levels.reshape(-1, b * b)[:, zigzag_indices(b)]
        counts, keys, amp_bits, amp_sizes = rle_encode_blocks(vectors)
        # Frequencies go in first-occurrence order: Huffman's heap breaks
        # ties by that order, so the table depends on it.
        unique, first, inverse, freq = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        symbols = [rle_symbol(k) for k in unique]
        huffman = HuffmanCode.from_frequencies(
            {symbols[j]: int(freq[j]) for j in np.argsort(first)})
        codewords = np.array([huffman.codeword(sym) for sym in symbols],
                             dtype=np.int64).reshape(-1, 2)
        # Each block writes all its codewords, then all its amplitude
        # fields: block i's 2 * counts[i] fields start at 2 * starts[i].
        starts = np.cumsum(counts) - counts
        block = np.repeat(np.arange(counts.size), counts)
        code_at = np.arange(keys.size) + starts[block]
        amp_at = code_at + counts[block]
        values = np.empty(2 * keys.size, dtype=np.int64)
        lengths = np.empty(2 * keys.size, dtype=np.int64)
        values[code_at], lengths[code_at] = codewords[inverse].T
        values[amp_at] = amp_bits
        lengths[amp_at] = amp_sizes
        block_bits = np.add.reduceat(lengths, 2 * starts)
        slice_bytes = self._slice_byte_counts(block_bits)
        return EncodedFrame(
            bitstream=pack_bits(values, lengths),
            huffman=huffman,
            block_symbol_counts=counts.tolist(),
            slice_bytes=slice_bytes,
            frame_shape=tuple(original_shape),
            padded_shape=padded.shape,
            total_bits=int(block_bits.sum()),
        )

    def _slice_byte_counts(self, block_bits):
        """Partition per-block bit counts into slice byte counts."""
        groups = np.array_split(block_bits, self.slices_per_frame)
        return np.asarray([int(np.ceil(g.sum() / 8.0)) if g.size else 0 for g in groups])

    def decode_frame(self, encoded):
        """Decode an :class:`EncodedFrame` back to pel values in [0, 255].

        Reconstruction is lossy only through quantization; the
        entropy-coding layers are exactly invertible, which the test
        suite verifies block-for-block.
        """
        if not isinstance(encoded, EncodedFrame):
            raise TypeError("encoded must be an EncodedFrame")
        b = self.block_size
        nbh = encoded.padded_shape[0] // b
        nbw = encoded.padded_shape[1] // b
        reader = BitReader(encoded.bitstream)
        levels = np.empty((nbh, nbw, b, b), dtype=np.int64)
        index = 0
        for row in range(nbh):
            for col in range(nbw):
                n_symbols = encoded.block_symbol_counts[index]
                index += 1
                symbols = encoded.huffman.decode_from(reader, n_symbols)
                amplitudes = []
                for symbol in symbols:
                    if symbol[0] in ("DC", "AC"):
                        size = symbol[-1]
                        amplitudes.append((reader.read_bits(size), size))
                    else:
                        amplitudes.append((0, 0))
                vector = rle_decode_block(symbols, amplitudes, block_length=b * b)
                levels[row, col] = zigzag_unscan(vector, b)
        coeffs = dequantize(levels, self.quant_step)
        image = blockwise_idct(coeffs, matrix=self._dct_matrix) + 128.0
        h, w = encoded.frame_shape
        image = image[:h, :w]
        return np.clip(image, 0.0, 255.0)

    # ------------------------------------------------------------------
    # Movie-level coding
    # ------------------------------------------------------------------
    def encode_movie(self, frames, frame_rate=24.0):
        """Code a sequence of frames into a :class:`VBRTrace`.

        ``frames`` is any iterable of 2-D arrays (e.g. a
        :class:`~repro.video.synthetic.SyntheticMovie` generator); the
        returned trace carries genuine per-slice byte counts.
        """
        frame_bytes = []
        slice_bytes = []
        for frame in frames:
            encoded = self.encode_frame(frame)
            frame_bytes.append(encoded.total_bytes)
            slice_bytes.append(encoded.slice_bytes)
        if not frame_bytes:
            raise ValueError("frames iterable is empty")
        return VBRTrace(
            np.asarray(frame_bytes, dtype=float),
            frame_rate=frame_rate,
            slices_per_frame=self.slices_per_frame,
            slice_bytes=np.concatenate(slice_bytes).astype(float),
        )

    def __repr__(self):
        return (
            f"IntraframeCodec(quant_step={self.quant_step:g}, "
            f"block_size={self.block_size}, slices_per_frame={self.slices_per_frame})"
        )
