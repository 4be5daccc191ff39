"""Tests for the bitstream and run-length coding layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.bitstream import BitReader, pack_bits
from repro.video.rle import (
    EOB,
    ZRL,
    decode_amplitude,
    encode_amplitude,
    magnitude_category,
    rle_decode_block,
    rle_encode_block,
)


class TestBitstream:
    def test_roundtrip_fields(self):
        r = BitReader(pack_bits([5, 0, 1023], [3, 1, 10]))
        assert r.read_bits(3) == 5
        assert r.read_bits(1) == 0
        assert r.read_bits(10) == 1023

    def test_bit_length_tracking(self):
        data = pack_bits([1, 3], [1, 2])
        assert len(data) == 1
        assert BitReader(data).read_bits(3) == 0b111

    def test_msb_first_packing(self):
        assert pack_bits([0b1, 0b0000000], [1, 7]) == b"\x80"

    def test_padding_to_byte(self):
        assert len(pack_bits([1], [1])) == 1

    def test_zero_width_write(self):
        assert pack_bits([0], [0]) == b""
        assert pack_bits([], []) == b""

    def test_value_too_large(self):
        with pytest.raises(ValueError):
            pack_bits([4], [2])

    def test_negative_value_or_length(self):
        with pytest.raises(ValueError):
            pack_bits([-1], [3])
        with pytest.raises(ValueError):
            pack_bits([0], [-1])

    def test_read_past_end(self):
        r = BitReader(b"\xff")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

class TestAmplitudeCoding:
    def test_categories(self):
        assert magnitude_category(0) == 0
        assert magnitude_category(1) == 1
        assert magnitude_category(-1) == 1
        assert magnitude_category(255) == 8
        assert magnitude_category(-256) == 9

    @pytest.mark.parametrize("value", [-255, -16, -1, 0, 1, 7, 128, 1000])
    def test_roundtrip(self, value):
        bits, size = encode_amplitude(value)
        assert decode_amplitude(bits, size) == value

    def test_negative_clears_top_bit(self):
        """One's-complement convention: negatives have a 0 top bit."""
        bits, size = encode_amplitude(-5)
        assert size == 3
        assert (bits >> (size - 1)) == 0


class TestRLEBlock:
    def test_simple_block(self):
        coeffs = np.zeros(64, dtype=int)
        coeffs[0] = 10  # DC
        coeffs[3] = -2
        symbols, amplitudes = rle_encode_block(coeffs)
        assert symbols[0] == ("DC", 4)
        assert symbols[1] == ("AC", 2, 2)
        assert symbols[-1] == EOB
        np.testing.assert_array_equal(rle_decode_block(symbols, amplitudes), coeffs)

    def test_all_zero_block(self):
        coeffs = np.zeros(64, dtype=int)
        symbols, amplitudes = rle_encode_block(coeffs)
        assert symbols == [("DC", 0), EOB]
        np.testing.assert_array_equal(rle_decode_block(symbols, amplitudes), coeffs)

    def test_long_zero_run_uses_zrl(self):
        coeffs = np.zeros(64, dtype=int)
        coeffs[0] = 1
        coeffs[40] = 3  # run of 39 zeros -> 2 ZRLs + run 7
        symbols, amplitudes = rle_encode_block(coeffs)
        assert symbols.count(ZRL) == 2
        np.testing.assert_array_equal(rle_decode_block(symbols, amplitudes), coeffs)

    def test_dense_block_no_eob(self):
        """A block ending in a nonzero coefficient has no EOB."""
        coeffs = np.arange(1, 65)
        symbols, amplitudes = rle_encode_block(coeffs)
        assert EOB not in symbols
        np.testing.assert_array_equal(rle_decode_block(symbols, amplitudes), coeffs)

    def test_negative_dc(self):
        coeffs = np.zeros(64, dtype=int)
        coeffs[0] = -100
        symbols, amplitudes = rle_encode_block(coeffs)
        np.testing.assert_array_equal(rle_decode_block(symbols, amplitudes), coeffs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rle_encode_block(np.array([]))

    def test_decode_validates_lengths(self):
        with pytest.raises(ValueError):
            rle_decode_block([("DC", 1)], [])

    def test_decode_requires_dc_first(self):
        with pytest.raises(ValueError):
            rle_decode_block([EOB], [(0, 0)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), sparsity=st.floats(0.0, 1.0))
def test_rle_roundtrip_property(seed, sparsity):
    """Property: RLE decode(encode(x)) == x for arbitrary sparse blocks."""
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-200, 200, size=64)
    mask = rng.uniform(size=64) < sparsity
    coeffs[mask] = 0
    symbols, amplitudes = rle_encode_block(coeffs)
    np.testing.assert_array_equal(rle_decode_block(symbols, amplitudes), coeffs)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.tuples(st.integers(0, 2**12 - 1), st.integers(1, 12)), min_size=1, max_size=50
    )
)
def test_bitstream_roundtrip_property(values):
    """Property: any sequence of (value, width) fields roundtrips."""
    fields = [value & ((1 << width) - 1) for value, width in values]
    r = BitReader(pack_bits(fields, [width for _, width in values]))
    for value, width in values:
        assert r.read_bits(width) == (value & ((1 << width) - 1))
