"""Tests for zig-zag scanning and uniform quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.quantize import dequantize, quantize
from repro.video.zigzag import zigzag_indices, zigzag_unscan


def _scan(block):
    """Zig-zag order of one square block, as the codec reads it."""
    return block.reshape(-1)[zigzag_indices(block.shape[0])]


class TestZigzag:
    def test_indices_are_permutation(self):
        idx = zigzag_indices(8)
        assert sorted(idx.tolist()) == list(range(64))

    def test_standard_8x8_prefix(self):
        """First entries of the JPEG zig-zag order."""
        idx = zigzag_indices(8)
        # (0,0), (0,1), (1,0), (2,0), (1,1), (0,2), (0,3), (1,2) ...
        expected_prefix = [0, 1, 8, 16, 9, 2, 3, 10]
        assert idx[:8].tolist() == expected_prefix

    def test_last_is_bottom_right(self):
        assert zigzag_indices(8)[-1] == 63

    def test_scan_unscan_roundtrip(self, rng):
        block = rng.integers(-100, 100, size=(8, 8))
        np.testing.assert_array_equal(zigzag_unscan(_scan(block), 8), block)

    def test_scan_groups_frequencies(self):
        """Scanning the frequency-index-sum block yields a
        non-decreasing-diagonal sequence."""
        freq = np.add.outer(np.arange(8), np.arange(8))
        scanned = _scan(freq)
        assert np.all(np.diff(scanned) >= -1)
        assert scanned[0] == 0
        assert scanned[-1] == 14

    def test_small_blocks(self):
        idx4 = zigzag_indices(4)
        assert sorted(idx4.tolist()) == list(range(16))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            zigzag_unscan(np.ones(63), 8)
        with pytest.raises(ValueError):
            zigzag_unscan(np.ones((8, 8)), 8)


class TestQuantize:
    def test_roundtrip_error_bounded(self, rng):
        coeffs = rng.uniform(-1000, 1000, size=(8, 8))
        step = 16.0
        recon = dequantize(quantize(coeffs, step), step)
        assert np.max(np.abs(recon - coeffs)) <= step / 2 + 1e-9

    def test_integer_levels(self):
        levels = quantize(np.array([15.9, 16.1, -8.1]), 16.0)
        assert levels.dtype == np.int32
        np.testing.assert_array_equal(levels, [1, 1, -1])
        # Exact half-step ties follow numpy's round-half-to-even.
        assert quantize(np.array([-8.0]), 16.0)[0] == 0

    def test_zero_preserved(self):
        assert quantize(np.array([0.0]), 4.0)[0] == 0

    def test_larger_step_more_zeros(self, rng):
        coeffs = rng.normal(0, 10, size=1000)
        fine = np.count_nonzero(quantize(coeffs, 1.0))
        coarse = np.count_nonzero(quantize(coeffs, 50.0))
        assert coarse < fine

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            quantize(np.ones(4), 0.0)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            quantize(np.array([1e300]), 1e-6)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 1000))
def test_zigzag_roundtrip_property(n, seed):
    """Property: unscan(scan(block)) is the identity for any size."""
    block = np.random.default_rng(seed).integers(-50, 50, size=(n, n))
    np.testing.assert_array_equal(zigzag_unscan(_scan(block), n), block)
