"""Tests for the 8x8 DCT implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.dct import (
    block_view,
    blockwise_dct,
    blockwise_idct,
    dct_matrix,
    unblock_view,
)


def _block_dct(block):
    """The codec's DCT of one 8x8 block: a one-block ``blockwise_dct``."""
    return blockwise_dct(block)[0, 0]


class TestDCTMatrix:
    def test_orthogonal(self):
        c = dct_matrix(8)
        np.testing.assert_allclose(c @ c.T, np.eye(8), atol=1e-12)

    def test_first_row_constant(self):
        c = dct_matrix(8)
        np.testing.assert_allclose(c[0], np.full(8, np.sqrt(1 / 8)))

    def test_matches_scipy(self):
        """Cross-check against scipy's orthonormalized DCT-II."""
        from scipy import fft as sfft

        x = np.random.default_rng(0).uniform(size=8)
        ours = dct_matrix(8) @ x
        theirs = sfft.dct(x, norm="ortho")
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_other_sizes(self):
        for n in (4, 16):
            c = dct_matrix(n)
            np.testing.assert_allclose(c @ c.T, np.eye(n), atol=1e-12)


class TestBlockTransforms:
    def test_roundtrip(self, rng):
        block = rng.uniform(0, 255, size=(8, 8))
        np.testing.assert_allclose(blockwise_idct(blockwise_dct(block)), block, atol=1e-9)

    def test_constant_block_energy_in_dc(self):
        block = np.full((8, 8), 100.0)
        coeffs = _block_dct(block)
        assert coeffs[0, 0] == pytest.approx(800.0)  # 100 * 8 (orthonormal)
        assert np.abs(coeffs).sum() == pytest.approx(800.0)

    def test_parseval(self, rng):
        """Orthonormal transform preserves energy."""
        block = rng.standard_normal((8, 8))
        coeffs = _block_dct(block)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(block**2), rel=1e-12)

    def test_high_frequency_content(self):
        """A checkerboard concentrates energy at the highest frequency."""
        block = np.indices((8, 8)).sum(axis=0) % 2 * 2.0 - 1.0
        coeffs = _block_dct(block)
        assert np.abs(coeffs[7, 7]) > 0.9 * np.abs(coeffs).max()


class TestBlockView:
    def test_roundtrip(self, rng):
        img = rng.uniform(size=(16, 24))
        np.testing.assert_array_equal(unblock_view(block_view(img, 8)), img)

    def test_shape(self):
        blocks = block_view(np.zeros((16, 24)), 8)
        assert blocks.shape == (2, 3, 8, 8)

    def test_block_contents(self):
        img = np.arange(64.0).reshape(8, 8)
        big = np.tile(img, (2, 2))
        blocks = block_view(big, 8)
        np.testing.assert_array_equal(blocks[0, 0], img)
        np.testing.assert_array_equal(blocks[1, 1], img)

    def test_rejects_nonmultiple(self):
        with pytest.raises(ValueError):
            block_view(np.zeros((10, 16)), 8)


class TestBlockwise:
    def test_matches_per_block(self, rng):
        img = rng.uniform(0, 255, size=(16, 16))
        all_coeffs = blockwise_dct(img)
        blocks = block_view(img)
        c = dct_matrix(8)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(all_coeffs[i, j], c @ blocks[i, j] @ c.T, atol=1e-10)

    def test_roundtrip(self, rng):
        img = rng.uniform(0, 255, size=(24, 32))
        np.testing.assert_allclose(blockwise_idct(blockwise_dct(img)), img, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dct_energy_property(seed):
    """Property: blockwise DCT preserves total energy for any image."""
    img = np.random.default_rng(seed).uniform(-100, 100, size=(16, 16))
    coeffs = blockwise_dct(img)
    assert np.sum(coeffs**2) == pytest.approx(np.sum(img**2), rel=1e-9)
