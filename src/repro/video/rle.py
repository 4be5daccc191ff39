"""JPEG-style run-length coding of zig-zag scanned coefficients.

Each quantized block vector (DC coefficient first, then 63 AC
coefficients in zig-zag order) is converted to a stream of symbols:

- the DC coefficient becomes ``("DC", size)`` where ``size`` is the
  magnitude category (bit length of ``|value|``), followed by ``size``
  amplitude bits;
- each nonzero AC coefficient becomes ``("AC", run, size)`` where
  ``run`` (0-15) counts the zeros preceding it; runs longer than 15
  emit the ZRL symbol ``("AC", 15, 0)``;
- a trailing run of zeros is replaced by the end-of-block symbol
  ``("EOB",)``.

Amplitudes use JPEG's one's-complement convention so that ``size``
bits suffice for both signs.  The symbols feed the Huffman coder; the
amplitude bits are appended verbatim.

:func:`rle_encode_block` codes one block symbol by symbol.
:func:`rle_encode_blocks` codes a whole frame's blocks at once with
array operations, naming each symbol by an integer key
(:func:`rle_symbol` turns a key back into its tuple).  The two give the
same stream; the tests hold the array coder to the per-block one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EOB",
    "ZRL",
    "magnitude_category",
    "encode_amplitude",
    "decode_amplitude",
    "rle_encode_block",
    "rle_encode_blocks",
    "rle_symbol",
    "rle_decode_block",
]

EOB = ("EOB",)
"""End-of-block symbol: the rest of the block is zero."""

ZRL = ("AC", 15, 0)
"""Zero-run-length symbol: sixteen consecutive zero coefficients."""


def magnitude_category(value):
    """JPEG magnitude category: bit length of ``|value|`` (0 for 0)."""
    return int(abs(int(value))).bit_length()


def encode_amplitude(value):
    """``(bits, n_bits)`` for a coefficient in one's-complement form.

    Positive values are sent verbatim in ``size`` bits; negative values
    are sent as ``value + 2**size - 1`` (which clears the top bit, so
    the decoder can recover the sign).
    """
    value = int(value)
    size = magnitude_category(value)
    if size == 0:
        return 0, 0
    if value > 0:
        return value, size
    return value + (1 << size) - 1, size


def decode_amplitude(bits, size):
    """Inverse of :func:`encode_amplitude`."""
    if size == 0:
        return 0
    if bits >> (size - 1):
        return bits
    return bits - (1 << size) + 1


def rle_encode_block(coeffs):
    """Run-length encode one zig-zag scanned block vector.

    Returns ``(symbols, amplitudes)`` where ``symbols`` is a list of
    hashable tuples for the Huffman coder and ``amplitudes`` the
    matching list of ``(bits, n_bits)`` pairs (entries for symbols
    without amplitude, such as EOB and ZRL, carry ``(0, 0)``).
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or coeffs.size < 1:
        raise ValueError(f"coeffs must be a non-empty 1-D vector, got shape {coeffs.shape}")
    symbols = []
    amplitudes = []
    dc = int(coeffs[0])
    bits, size = encode_amplitude(dc)
    symbols.append(("DC", size))
    amplitudes.append((bits, size))
    run = 0
    for value in coeffs[1:]:
        value = int(value)
        if value == 0:
            run += 1
            continue
        while run > 15:
            symbols.append(ZRL)
            amplitudes.append((0, 0))
            run -= 16
        bits, size = encode_amplitude(value)
        symbols.append(("AC", run, size))
        amplitudes.append((bits, size))
        run = 0
    if run > 0:
        symbols.append(EOB)
        amplitudes.append((0, 0))
    return symbols, amplitudes


#: Integer symbol keys: ``18 * size + tag``, where ``tag`` is the run
#: (0-15) of an AC symbol, 16 for DC and 17 for EOB.
_DC_TAG = 16
_EOB_KEY = 17
_ZRL_KEY = 15

_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))


def rle_symbol(key):
    """The symbol tuple of an integer key from :func:`rle_encode_blocks`."""
    size, tag = divmod(int(key), 18)
    if tag == _DC_TAG:
        return ("DC", size)
    if tag == _EOB_KEY:
        return EOB
    return ("AC", tag, size)


def _amplitude_fields(values):
    """Array :func:`encode_amplitude`: ``(bits, sizes)`` of int64 ``values``.

    A size is the exact integer bit length of ``|value|``: the number of
    powers of two not above it.
    """
    sizes = np.searchsorted(_POWERS_OF_TWO, np.abs(values), side="right")
    bits = np.where(values > 0, values, values + np.left_shift(1, sizes) - 1)
    return bits, sizes


def rle_encode_blocks(vectors):
    """Run-length encode many zig-zag scanned block vectors at once.

    ``vectors`` is an ``(n_blocks, block_length)`` integer array.  Returns
    ``(counts, keys, bits, sizes)``: ``counts[i]`` is the number of
    symbols of block ``i``, and ``keys``, ``bits`` and ``sizes`` hold
    every symbol's integer key and amplitude field, block after block.
    Block ``i``'s slice is exactly :func:`rle_encode_block` of
    ``vectors[i]``: DC, then for each nonzero AC coefficient ``run // 16``
    ZRLs and ``AC(run % 16, size)``, then EOB when the block ends in a
    zero.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
        raise ValueError(
            f"vectors must be a non-empty 2-D array, got shape {vectors.shape}"
        )
    values = vectors.astype(np.int64)
    n_blocks = values.shape[0]
    block, pos = np.nonzero(values[:, 1:])
    pos += 1
    # The run before each nonzero AC coefficient counts back to the
    # previous nonzero AC coefficient of its block, or to the DC.
    first = np.ones(block.size, dtype=bool)
    first[1:] = block[1:] != block[:-1]
    prev = np.where(first, 0, np.roll(pos, 1))
    run = pos - prev - 1
    zrl = run // 16
    ac_events = zrl + 1
    eob = values[:, -1] == 0 if values.shape[1] > 1 else np.zeros(n_blocks, bool)
    counts = 1 + eob + np.bincount(block, weights=ac_events,
                                   minlength=n_blocks).astype(np.int64)
    starts = np.cumsum(counts) - counts

    keys = np.full(int(counts.sum()), _ZRL_KEY, dtype=np.int64)
    bits = np.zeros(keys.size, dtype=np.int64)
    sizes = np.zeros(keys.size, dtype=np.int64)
    dc_bits, dc_sizes = _amplitude_fields(values[:, 0])
    keys[starts] = 18 * dc_sizes + _DC_TAG
    bits[starts] = dc_bits
    sizes[starts] = dc_sizes
    # Each AC symbol follows every earlier block's symbols, its own
    # block's DC, every earlier AC symbol of its block and its own ZRLs.
    eob_before = np.cumsum(eob) - eob
    at = (np.cumsum(ac_events) - ac_events) + zrl + block + 1 + eob_before[block]
    ac_bits, ac_sizes = _amplitude_fields(values[block, pos])
    keys[at] = 18 * ac_sizes + run % 16
    bits[at] = ac_bits
    sizes[at] = ac_sizes
    keys[(starts + counts - 1)[eob]] = _EOB_KEY
    return counts, keys, bits, sizes


def rle_decode_block(symbols, amplitudes, block_length=64):
    """Rebuild the zig-zag coefficient vector from an RLE stream.

    ``symbols`` / ``amplitudes`` must describe exactly one block.
    """
    if len(symbols) != len(amplitudes):
        raise ValueError("symbols and amplitudes must have equal length")
    if not symbols or symbols[0][0] != "DC":
        raise ValueError("block stream must start with a DC symbol")
    out = np.zeros(block_length, dtype=np.int64)
    bits, size = amplitudes[0]
    if size != symbols[0][1]:
        raise ValueError("DC amplitude size disagrees with its symbol")
    out[0] = decode_amplitude(bits, size)
    pos = 1
    for symbol, (bits, size) in zip(symbols[1:], amplitudes[1:]):
        if symbol == EOB:
            break
        if symbol[0] != "AC":
            raise ValueError(f"unexpected symbol {symbol!r} inside block")
        _, run, sym_size = symbol
        if sym_size != size:
            raise ValueError("AC amplitude size disagrees with its symbol")
        pos += run
        if symbol == ZRL:
            pos += 1
            continue
        if pos >= block_length:
            raise ValueError("RLE stream overruns the block")
        out[pos] = decode_amplitude(bits, size)
        pos += 1
    return out
