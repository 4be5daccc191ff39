"""Bit-level I/O used by the entropy coder.

:func:`pack_bits` packs a whole frame's ``(value, length)`` fields
MSB-first into bytes in one array pass; :class:`BitReader` reads them
back.  The codec uses these to produce an actual decodable bitstream, so
the byte counts the trace reports are the byte counts a real transport
would carry.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_bits", "BitReader"]

#: Longest field :func:`pack_bits` takes (the fields ride in int64).
MAX_FIELD_BITS = 62


def pack_bits(values, lengths):
    """Pack ``(value, length)`` fields MSB-first into zero-padded bytes.

    Field ``i`` contributes the ``lengths[i]`` least-significant bits of
    ``values[i]``, most significant first; a zero-length field writes
    nothing.  Each value must fit in its length.
    """
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if values.shape != lengths.shape:
        raise ValueError(
            f"values and lengths must match, got {values.size} and {lengths.size}"
        )
    bad = (lengths < 0) | (lengths > MAX_FIELD_BITS)
    if np.any(bad):
        raise ValueError(
            f"field lengths must lie in [0, {MAX_FIELD_BITS}], got {lengths[bad][0]}"
        )
    bad = (values < 0) | ((values >> lengths) != 0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"value {values[i]} does not fit in {lengths[i]} bits")
    ends = np.cumsum(lengths)
    field = np.repeat(np.arange(lengths.size), lengths)
    shift = ends[field] - 1 - np.arange(field.size)
    bits = (values[field] >> shift) & 1
    return np.packbits(bits.astype(np.uint8)).tobytes()


class BitReader:
    """Read bits MSB-first from a ``bytes`` object."""

    def __init__(self, data):
        self._data = bytes(data)
        self._pos = 0

    def read_bit(self):
        """Read a single bit; raises ``EOFError`` at end of stream."""
        byte_index, bit_index = divmod(self._pos, 8)
        if byte_index >= len(self._data):
            raise EOFError("attempted to read past the end of the bitstream")
        self._pos += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, n_bits):
        """Read ``n_bits`` bits as an unsigned integer (MSB-first)."""
        if n_bits < 0:
            raise ValueError(f"n_bits must be >= 0, got {n_bits}")
        value = 0
        for _ in range(n_bits):
            value = (value << 1) | self.read_bit()
        return value
