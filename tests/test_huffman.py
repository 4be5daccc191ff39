"""Tests for the canonical Huffman coder."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.bitstream import BitReader, pack_bits
from repro.video.huffman import HuffmanCode


def _code_for(symbols):
    return HuffmanCode.from_frequencies(Counter(symbols))


def _length(code, symbol):
    return code.codeword(symbol)[1]


def _mean_length(code, freqs):
    return sum(_length(code, s) * f for s, f in freqs.items()) / sum(freqs.values())


def _encode(code, symbols):
    """Pack the codewords of ``symbols`` into bytes."""
    values, lengths = zip(*(code.codeword(s) for s in symbols))
    return pack_bits(values, lengths)


class TestCodeConstruction:
    def test_two_symbols_one_bit_each(self):
        code = HuffmanCode.from_frequencies({"a": 10, "b": 1})
        assert _length(code, "a") == 1
        assert _length(code, "b") == 1

    def test_skewed_frequencies_give_short_codes_to_common(self):
        code = HuffmanCode.from_frequencies({"a": 100, "b": 10, "c": 5, "d": 1})
        assert _length(code, "a") < _length(code, "d")

    def test_single_symbol_alphabet(self):
        code = HuffmanCode.from_frequencies({"only": 7})
        assert _length(code, "only") == 1

    def test_kraft_equality_for_optimal_code(self):
        """An optimal prefix code satisfies Kraft with equality."""
        freqs = {s: f for s, f in zip("abcdefg", [50, 30, 10, 5, 3, 1, 1])}
        code = HuffmanCode.from_frequencies(freqs)
        kraft = sum(2.0 ** -_length(code, s) for s in freqs)
        assert kraft == pytest.approx(1.0)

    def test_prefix_free(self):
        freqs = {s: f for s, f in zip("abcdef", [20, 15, 10, 5, 3, 1])}
        code = HuffmanCode.from_frequencies(freqs)
        words = {}
        for s in freqs:
            c, length = code.codeword(s)
            words[s] = format(c, f"0{length}b")
        for s1, w1 in words.items():
            for s2, w2 in words.items():
                if s1 != s2:
                    assert not w2.startswith(w1)

    def test_mean_length_near_entropy(self, rng):
        """Huffman is within 1 bit of the entropy bound."""
        probs = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        freqs = {i: int(p * 10_000) for i, p in enumerate(probs)}
        code = HuffmanCode.from_frequencies(freqs)
        entropy = -np.sum(probs * np.log2(probs))
        mean_len = _mean_length(code, freqs)
        assert entropy <= mean_len + 1e-9 < entropy + 1.0

    def test_deterministic_canonical_assignment(self):
        f = {"x": 3, "y": 3, "z": 1}
        a = HuffmanCode.from_frequencies(f)
        b = HuffmanCode.from_frequencies(f)
        for s in f:
            assert a.codeword(s) == b.codeword(s)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HuffmanCode.from_frequencies({})

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            HuffmanCode.from_frequencies({"a": 0, "b": 2})

    def test_from_symbols(self):
        code = _code_for(list("aaabbc"))
        assert code.alphabet == {"a", "b", "c"}


class TestEncodeDecode:
    def test_roundtrip(self):
        symbols = list("the quick brown fox jumps over the lazy dog")
        code = _code_for(symbols)
        out = code.decode_from(BitReader(_encode(code, symbols)), len(symbols))
        assert out == symbols

    def test_encoded_bit_length_matches_stream(self):
        symbols = list("mississippi")
        code = _code_for(symbols)
        lengths = [_length(code, s) for s in symbols]
        assert len(_encode(code, symbols)) == -(-sum(lengths) // 8)

    def test_tuple_symbols(self):
        """The codec's alphabet is tuples like ('AC', run, size)."""
        symbols = [("AC", 0, 3)] * 5 + [("DC", 4)] * 2 + [("EOB",)]
        code = _code_for(symbols)
        assert code.decode_from(BitReader(_encode(code, symbols)), len(symbols)) == symbols

    def test_unknown_symbol_raises(self):
        code = HuffmanCode.from_frequencies({"a": 1, "b": 1})
        with pytest.raises(KeyError):
            code.codeword("c")

    def test_decode_invalid_stream(self):
        code = HuffmanCode.from_frequencies({"a": 3, "b": 2, "c": 1})
        with pytest.raises((ValueError, EOFError)):
            code.decode_from(BitReader(b"\xff\xff"), 20)

    def test_requires_bitreader(self):
        code = HuffmanCode.from_frequencies({"a": 1, "b": 1})
        with pytest.raises(TypeError):
            code.decode_from(b"\x00", 1)


@settings(max_examples=40, deadline=None)
@given(
    text=st.text(alphabet=st.sampled_from("abcdefgh"), min_size=1, max_size=300),
)
def test_huffman_roundtrip_property(text):
    """Property: decode(encode(s)) == s for arbitrary symbol streams."""
    symbols = list(text)
    code = _code_for(symbols)
    assert code.decode_from(BitReader(_encode(code, symbols)), len(symbols)) == symbols


@settings(max_examples=30, deadline=None)
@given(
    freqs=st.dictionaries(
        st.integers(0, 30), st.integers(min_value=1, max_value=1000), min_size=2, max_size=20
    )
)
def test_huffman_optimality_property(freqs):
    """Property: Huffman beats (or ties) the fixed-length code and
    satisfies the Kraft inequality."""
    code = HuffmanCode.from_frequencies(freqs)
    kraft = sum(2.0 ** -_length(code, s) for s in freqs)
    assert kraft <= 1.0 + 1e-9
    fixed = int(np.ceil(np.log2(len(freqs))))
    assert _mean_length(code, freqs) <= max(fixed, 1) + 1e-9
