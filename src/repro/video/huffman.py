"""Canonical Huffman coding, built from scratch.

The codec builds one Huffman table per frame from the frame's own
symbol statistics (the paper's coder similarly adapts its entropy
coding to the material).  Codes are *canonical*: symbols are assigned
codewords of the optimal lengths in lexicographic order, which makes
the table compact and the assignment deterministic.
"""

from __future__ import annotations

import heapq
import itertools

from repro.video.bitstream import BitReader

__all__ = ["HuffmanCode"]


def _code_lengths(frequencies):
    """Optimal codeword length per symbol via Huffman's algorithm.

    Returns ``{symbol: length}``.  A single-symbol alphabet gets length
    1 (a real stream still needs one bit per occurrence).
    """
    if not frequencies:
        raise ValueError("cannot build a Huffman code from an empty alphabet")
    if any(freq <= 0 for freq in frequencies.values()):
        raise ValueError("all symbol frequencies must be positive")
    if len(frequencies) == 1:
        return {symbol: 1 for symbol in frequencies}
    counter = itertools.count()
    # Heap entries: (frequency, tiebreak, {symbol: depth}).
    heap = [(freq, next(counter), {symbol: 0}) for symbol, freq in frequencies.items()]
    heapq.heapify(heap)
    while len(heap) > 1:
        freq_a, _, tree_a = heapq.heappop(heap)
        freq_b, _, tree_b = heapq.heappop(heap)
        merged = {symbol: depth + 1 for symbol, depth in tree_a.items()}
        merged.update({symbol: depth + 1 for symbol, depth in tree_b.items()})
        heapq.heappush(heap, (freq_a + freq_b, next(counter), merged))
    return heap[0][2]


class HuffmanCode:
    """Canonical Huffman code over an arbitrary hashable alphabet.

    Build with :meth:`from_frequencies`; then :meth:`codeword` gives
    the ``(code, length)`` fields an encoder packs with
    :func:`~repro.video.bitstream.pack_bits`, and :meth:`decode_from`
    reads symbols back from a :class:`~repro.video.bitstream.BitReader`.
    """

    def __init__(self, lengths):
        if not lengths:
            raise ValueError("lengths must not be empty")
        # Canonical assignment: sort by (length, symbol repr) and hand
        # out consecutive codewords, shifting when the length grows.
        ordered = sorted(lengths.items(), key=lambda item: (item[1], repr(item[0])))
        self._length = dict(lengths)
        self._code = {}
        code = 0
        prev_len = ordered[0][1]
        for symbol, length in ordered:
            code <<= length - prev_len
            self._code[symbol] = code
            code += 1
            prev_len = length
        if code > (1 << prev_len):
            raise ValueError("code lengths violate the Kraft inequality")
        self._decode = {
            (length, self._code[symbol]): symbol for symbol, length in self._length.items()
        }
        self._max_length = max(self._length.values())

    @classmethod
    def from_frequencies(cls, frequencies):
        """Build the optimal code for a ``{symbol: count}`` mapping."""
        return cls(_code_lengths(dict(frequencies)))

    @property
    def alphabet(self):
        """The coded symbols."""
        return set(self._length)

    def codeword(self, symbol):
        """``(code, length)`` pair for ``symbol``."""
        return self._code[symbol], self._length[symbol]

    def decode_from(self, reader, n_symbols):
        """Read ``n_symbols`` symbols from a :class:`BitReader`."""
        if not isinstance(reader, BitReader):
            raise TypeError("reader must be a BitReader")
        out = []
        decode = self._decode
        for _ in range(n_symbols):
            code = 0
            length = 0
            while True:
                code = (code << 1) | reader.read_bit()
                length += 1
                symbol = decode.get((length, code))
                if symbol is not None:
                    out.append(symbol)
                    break
                if length > self._max_length:
                    raise ValueError("invalid bitstream: no codeword matches")
        return out

    def __len__(self):
        return len(self._length)

    def __repr__(self):
        return f"HuffmanCode(alphabet_size={len(self._length)}, max_length={self._max_length})"
