"""Tests for the complete intraframe codec."""

import numpy as np
import pytest

from repro.video.codec import EncodedFrame, IntraframeCodec


@pytest.fixture(scope="module")
def codec():
    return IntraframeCodec(quant_step=16.0, slices_per_frame=6)


@pytest.fixture(scope="module")
def frame(paper_marginal):
    rng = np.random.default_rng(42)
    yy, xx = np.mgrid[0:48, 0:64]
    img = 100 + 50 * np.sin(xx / 10.0) + 30 * np.cos(yy / 7.0)
    img += rng.normal(0, 8, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


class TestEncodeDecode:
    def test_roundtrip_error_bounded_by_quantizer(self, codec, frame):
        """Entropy coding is lossless; only quantization distorts.
        Max pel error is bounded by the worst-case IDCT amplification
        of the per-coefficient bound step/2 (factor 8 for an 8x8
        orthonormal basis)."""
        encoded = codec.encode_frame(frame)
        decoded = codec.decode_frame(encoded)
        assert decoded.shape == frame.shape
        assert np.max(np.abs(decoded - frame)) <= 8 * codec.quant_step / 2 + 1e-6

    def test_rmse_small(self, codec, frame):
        decoded = codec.decode_frame(codec.encode_frame(frame))
        rmse = float(np.sqrt(np.mean((decoded - frame) ** 2)))
        assert rmse < codec.quant_step

    def test_lossless_at_entropy_layer(self, codec, frame):
        """Re-encoding the decoded frame reproduces identical levels:
        quantization is idempotent on reconstructed data."""
        once = codec.decode_frame(codec.encode_frame(frame))
        twice = codec.decode_frame(codec.encode_frame(once))
        assert np.max(np.abs(twice - once)) <= 1.0

    def test_padding_of_nonmultiple_frames(self, codec):
        img = np.full((20, 30), 128.0)
        encoded = codec.encode_frame(img)
        assert encoded.padded_shape == (24, 32)
        decoded = codec.decode_frame(encoded)
        assert decoded.shape == (20, 30)

    def test_slice_bytes_sum_to_total(self, codec, frame):
        encoded = codec.encode_frame(frame)
        assert encoded.slice_bytes.sum() == encoded.total_bytes
        assert encoded.slice_bytes.size == codec.slices_per_frame

    def test_decode_rejects_wrong_type(self, codec):
        with pytest.raises(TypeError):
            codec.decode_frame(b"not a frame")

    def test_rejects_bad_frame(self, codec):
        with pytest.raises(ValueError):
            codec.encode_frame(np.zeros((0, 8)))
        with pytest.raises(ValueError):
            codec.encode_frame(np.zeros((8, 8, 3)))


class TestRateBehaviour:
    def test_complex_frames_cost_more(self, codec, rng):
        """The core VBR mechanism: bits track spatial complexity."""
        flat = np.full((48, 64), 128.0)
        noisy = np.clip(128 + rng.normal(0, 40, size=(48, 64)), 0, 255)
        assert codec.encode_frame(noisy).total_bytes > 3 * codec.encode_frame(flat).total_bytes

    def test_coarser_quantizer_fewer_bytes(self, frame):
        fine = IntraframeCodec(quant_step=4.0, slices_per_frame=6)
        coarse = IntraframeCodec(quant_step=64.0, slices_per_frame=6)
        assert coarse.encode_frame(frame).total_bytes < fine.encode_frame(frame).total_bytes

    def test_compression_ratio_reasonable(self, codec, frame):
        ratio = frame.size / codec.encode_frame(frame).total_bytes
        assert 1.0 < ratio < 100.0

    def test_complexity_concentrated_in_slices(self, codec, rng):
        """A frame complex only at the bottom spends its bytes there."""
        img = np.full((48, 64), 128.0)
        img[40:, :] = np.clip(128 + rng.normal(0, 60, size=(8, 64)), 0, 255)
        encoded = codec.encode_frame(img)
        assert encoded.slice_bytes[-1] > 2 * encoded.slice_bytes[0]


class TestMovieCoding:
    def test_encode_movie_trace(self, codec):
        frames = [np.full((16, 16), v, dtype=np.uint8) for v in (0, 128, 255)]
        trace = codec.encode_movie(frames, frame_rate=24.0)
        assert trace.n_frames == 3
        assert trace.has_slice_data
        assert trace.slices_per_frame == codec.slices_per_frame

    def test_synthetic_movie_end_to_end(self):
        from repro.video.synthetic import SyntheticMovie

        codec = IntraframeCodec(quant_step=16.0, slices_per_frame=30)
        movie = SyntheticMovie(6, height=48, width=64, seed=3)
        trace = codec.encode_movie(movie)
        assert trace.n_frames == 6
        assert np.all(trace.frame_bytes > 0)

    def test_empty_movie_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.encode_movie([])

    def test_effect_scenes_produce_peaks(self):
        """Special-effect (high spatial frequency) frames cost far
        more than placid ones -- the codec-level origin of the trace's
        extreme peaks."""
        from repro.video.synthetic import SyntheticMovie

        codec = IntraframeCodec(quant_step=16.0, slices_per_frame=10)
        calm = SyntheticMovie(4, height=48, width=64, seed=5, effect_probability=0.0)
        wild = SyntheticMovie(4, height=48, width=64, seed=5, effect_probability=1.0)
        calm_bytes = codec.encode_movie(calm).frame_bytes.mean()
        wild_bytes = codec.encode_movie(wild).frame_bytes.mean()
        assert wild_bytes > 1.5 * calm_bytes
