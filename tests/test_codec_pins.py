"""Byte pins of the intraframe codec's output, and the array RLE oracle.

The sha256 pins below were recorded with the bit-at-a-time entropy
coder (one ``BitWriter.write_bits`` call per field, one
``rle_encode_block`` call per block).  The array coder that replaced
it must reproduce every frame exactly: bitstream, Huffman table, total
bits, per-block symbol counts and slice bytes.  The property tests pin
the array run-length stream against :func:`rle_encode_block`, which
stays as the oracle.
"""

import hashlib

import numpy as np
import pytest

from repro.video.codec import IntraframeCodec
from repro.video.rle import rle_encode_block, rle_encode_blocks, rle_symbol
from repro.video.synthetic import SyntheticMovie


def _frame_digest(encoded_frames):
    """sha256 over everything an encoded frame carries."""
    h = hashlib.sha256()
    for enc in encoded_frames:
        h.update(enc.bitstream)
        h.update(f"|{enc.total_bits}|{enc.padded_shape}|".encode())
        h.update(np.asarray(enc.slice_bytes, dtype=np.int64).tobytes())
        h.update(np.asarray(enc.block_symbol_counts, dtype=np.int64).tobytes())
        for symbol in sorted(enc.huffman.alphabet, key=repr):
            h.update(repr((symbol, enc.huffman.codeword(symbol))).encode())
    return h.hexdigest()


def _test_frame():
    rng = np.random.default_rng(42)
    yy, xx = np.mgrid[0:48, 0:64]
    img = 100 + 50 * np.sin(xx / 10.0) + 30 * np.cos(yy / 7.0)
    img += rng.normal(0, 8, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def _codec_test_frames():
    """(codec, frame) pairs of the codec tests, in a fixed order."""
    rng = np.random.default_rng(12345)
    six = IntraframeCodec(quant_step=16.0, slices_per_frame=6)
    frame = _test_frame()
    pairs = [(six, frame), (six, np.full((20, 30), 128.0))]
    pairs += [(six, np.full((16, 16), v, dtype=np.uint8)) for v in (0, 128, 255)]
    pairs.append((six, np.clip(128 + rng.normal(0, 40, size=(48, 64)), 0, 255)))
    bottom = np.full((48, 64), 128.0)
    bottom[40:, :] = np.clip(128 + rng.normal(0, 60, size=(8, 64)), 0, 255)
    pairs.append((six, bottom))
    for step in (4.0, 64.0):
        pairs.append((IntraframeCodec(quant_step=step, slices_per_frame=6), frame))
    thirty = IntraframeCodec(quant_step=16.0, slices_per_frame=30)
    pairs += [(thirty, f) for f in SyntheticMovie(6, height=48, width=64, seed=3)]
    ten = IntraframeCodec(quant_step=16.0, slices_per_frame=10)
    for p in (0.0, 1.0):
        movie = SyntheticMovie(4, height=48, width=64, seed=5, effect_probability=p)
        pairs += [(ten, f) for f in movie]
    return pairs


def _edge_frames():
    """Single-block, sub-block and non-multiple-of-8 frames."""
    rng = np.random.default_rng(7)
    codec = IntraframeCodec(quant_step=2.0, slices_per_frame=3)
    frames = [
        rng.integers(0, 256, size=(8, 8)),
        rng.integers(0, 256, size=(13, 21)),
        np.full((1, 1), 200.0),
        np.full((8, 8), 128.0),
    ]
    return [(codec, f) for f in frames]


def _campaign(n_frames):
    codec = IntraframeCodec(quant_step=16.0, slices_per_frame=30)
    return [(codec, f) for f in SyntheticMovie(n_frames, height=120, width=128, seed=7)]


PINS = {
    "campaign_quick_8": (
        lambda: _campaign(8),
        "47498a5b4cc3c98975e2f3931c367375ffdd2e211b4606461317bf22ec79582b",
    ),
    "campaign_full_48": (
        lambda: _campaign(48),
        "4b83c98000bebf19a9be67c6c007fc13cbf9f7c9c675e05c795f7bcb866169b9",
    ),
    "codec_tests": (
        _codec_test_frames,
        "257e79eb4fdbe42438cc104e2e8e966710f8ae278e1533414fa498403a8f2d01",
    ),
    "edge_frames": (
        _edge_frames,
        "11d1a8ca9c6bf9b1bf45745046ff1a6a4c6199aa0603620b8b6d6157c85b4834",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_encoded_frames_match_recorded_pins(case):
    frames, pin = PINS[case]
    assert _frame_digest(codec.encode_frame(f) for codec, f in frames()) == pin



def _array_streams(vectors):
    """Per-block ``(symbols, amplitudes)`` from the array coder."""
    counts, keys, bits, sizes = rle_encode_blocks(vectors)
    ends = np.cumsum(counts)
    return [
        ([rle_symbol(k) for k in keys[end - n:end]],
         list(zip(bits[end - n:end].tolist(), sizes[end - n:end].tolist())))
        for n, end in zip(counts, ends)
    ]


def _assert_matches_oracle(vectors):
    vectors = np.asarray(vectors)
    expected = [rle_encode_block(v) for v in vectors]
    assert _array_streams(vectors) == expected


def _block(**entries):
    vector = np.zeros(64, dtype=np.int64)
    for pos, value in entries.items():
        vector[int(pos[1:])] = value
    return vector


class TestArrayRLEMatchesOracle:
    def test_all_zero_ac_is_eob_only(self):
        blocks = np.zeros((5, 64), dtype=np.int64)
        blocks[:, 0] = [0, 3, -3, 100, -1024]
        _assert_matches_oracle(blocks)
        assert all(s[-1] == ("EOB",) and len(s) == 2 for s, _ in _array_streams(blocks))

    def test_last_coefficient_nonzero_has_no_eob(self):
        blocks = [_block(p0=4, p63=-2), _block(p63=1), np.arange(1, 65)]
        _assert_matches_oracle(blocks)
        assert all(("EOB",) not in s for s, _ in _array_streams(np.asarray(blocks)))

    @pytest.mark.parametrize("run", [15, 16, 31, 32, 47])
    def test_zrl_boundaries(self, run):
        # The run sits before the first AC coefficient, between two AC
        # coefficients, and before the last coefficient of the block.
        blocks = [
            _block(**{f"p{run + 1}": 5}),
            _block(p1=-7, **{f"p{run + 2}": 9}),
            _block(p2=1, **{f"p{63 - run - 1}": 2, "p63": -3}),
        ]
        _assert_matches_oracle(blocks)

    def test_dc_zero_and_negative_amplitudes(self):
        blocks = [_block(p0=0, p1=-1, p5=-300), _block(p0=-77, p2=-2, p3=-1)]
        _assert_matches_oracle(blocks)

    def test_amplitude_sizes_at_powers_of_two(self):
        levels = [v for k in range(1, 12) for v in (2**k - 1, 2**k)]
        levels.append(2**11)
        values = np.array([s * v for v in levels for s in (1, -1)], dtype=np.int64)
        blocks = np.zeros((values.size, 64), dtype=np.int64)
        blocks[:, 0] = values
        blocks[:, 9] = values[::-1]
        _assert_matches_oracle(blocks)

    def test_single_block_and_short_vectors(self):
        _assert_matches_oracle([_block(p0=12, p40=3)])
        _assert_matches_oracle(np.array([[5], [0], [-9]]))
        _assert_matches_oracle(np.array([[0, 0, 4], [1, 2, 0]]))

    def test_single_block_and_ragged_frames_round_trip(self):
        """A one-block frame and frames that are not a multiple of 8."""
        codec = IntraframeCodec(quant_step=1.0, slices_per_frame=2)
        rng = np.random.default_rng(3)
        for shape in ((8, 8), (5, 3), (19, 10)):
            frame = rng.integers(0, 256, size=shape)
            encoded = codec.encode_frame(frame)
            n_blocks = -(-shape[0] // 8) * -(-shape[1] // 8)
            assert len(encoded.block_symbol_counts) == n_blocks
            np.testing.assert_allclose(codec.decode_frame(encoded), frame, atol=4.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(-2048, 2049, size=(40, 64))
        blocks[rng.uniform(size=blocks.shape) < rng.uniform(0.5, 1.0)] = 0
        blocks[: seed + 1, 1:] = 0
        _assert_matches_oracle(blocks)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rle_encode_blocks(np.zeros((0, 64)))
