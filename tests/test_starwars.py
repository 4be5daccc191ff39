"""Tests for the calibrated Star-Wars-like trace synthesizer."""

import hashlib

import numpy as np
import pytest
from scipy import signal

from repro.experiments.data import reference_trace
from repro.video.scenes import generate_scene_script
from repro.video.starwars import (
    _SPLIT_BLOCK,
    STARWARS_PARAMETERS,
    _ar1_path,
    _slice_split,
    synthesize_starwars_trace,
)


@pytest.fixture(scope="module")
def trace():
    return synthesize_starwars_trace(n_frames=30_000, seed=5)


class TestCalibration:
    def test_frame_moments_match_paper(self, trace):
        x = trace.frame_bytes
        assert np.mean(x) == pytest.approx(27_791.0, rel=0.005)
        assert np.std(x) == pytest.approx(6_254.0, rel=0.02)

    def test_mean_rate_table1(self, trace):
        assert trace.mean_rate_bps / 1e6 == pytest.approx(5.34, rel=0.01)

    def test_peak_to_mean_band(self, trace):
        """Paper: 2.82 at frame level; the synthesis lands nearby."""
        s = trace.summary("frame")
        assert 2.2 < s.peak_to_mean < 3.8

    def test_slice_cov_matches_paper(self, trace):
        s = trace.summary("slice")
        assert s.coefficient_of_variation == pytest.approx(0.31, abs=0.03)

    def test_slice_mean(self, trace):
        s = trace.summary("slice")
        assert s.mean == pytest.approx(926.4, rel=0.01)

    def test_all_bytes_positive_integers(self, trace):
        assert np.all(trace.frame_bytes > 0)
        np.testing.assert_array_equal(trace.frame_bytes, np.round(trace.frame_bytes))
        np.testing.assert_array_equal(trace.slice_bytes, np.round(trace.slice_bytes))

    def test_slices_sum_to_frames_exactly(self, trace):
        sums = trace.slice_bytes.reshape(-1, 30).sum(axis=1)
        np.testing.assert_array_equal(sums, trace.frame_bytes)

    def test_custom_targets(self):
        t = synthesize_starwars_trace(n_frames=5_000, seed=1, mean=1000.0, std=200.0)
        assert np.mean(t.frame_bytes) == pytest.approx(1000.0, rel=0.01)
        assert np.std(t.frame_bytes) == pytest.approx(200.0, rel=0.05)


class TestStructure:
    def test_heavy_tail_recoverable(self, trace):
        """The fitted tail slope matches the synthesis target."""
        from repro.distributions.fitting import fit_pareto_tail_slope

        a = fit_pareto_tail_slope(trace.frame_bytes, tail_fraction=0.02)
        assert a == pytest.approx(STARWARS_PARAMETERS["tail_shape"], rel=0.35)

    def test_hurst_in_paper_band(self, trace):
        from repro.analysis.hurst import rs_pox, variance_time

        h_vt = variance_time(trace.frame_bytes).hurst
        h_rs = rs_pox(trace.frame_bytes).hurst
        assert 0.7 < h_vt < 0.95
        assert 0.7 < h_rs < 0.95

    def test_opening_crawl_is_high_bandwidth(self, trace):
        """The first 42 seconds (opening text) run hot, as in Fig. 1."""
        x = trace.frame_bytes
        crawl = np.mean(x[: int(42 * 24)])
        rest = np.mean(x[int(42 * 24) :])
        assert crawl > 1.1 * rest

    def test_central_spikes_present(self, trace):
        """The extreme peaks sit near the middle of the movie."""
        x = trace.frame_bytes
        top_frames = np.argsort(x)[-10:]
        relative = top_frames / x.size
        assert np.any((relative > 0.4) & (relative < 0.6))

    def test_short_range_correlation(self, trace):
        """Lag-1 autocorrelation is strong (scene persistence)."""
        x = trace.frame_bytes
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 > 0.6

    def test_deterministic(self):
        a = synthesize_starwars_trace(n_frames=2_000, seed=9).frame_bytes
        b = synthesize_starwars_trace(n_frames=2_000, seed=9).frame_bytes
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = synthesize_starwars_trace(n_frames=2_000, seed=1).frame_bytes
        b = synthesize_starwars_trace(n_frames=2_000, seed=2).frame_bytes
        assert not np.array_equal(a, b)

    def test_without_slices(self):
        t = synthesize_starwars_trace(n_frames=1_000, seed=3, with_slices=False)
        assert not t.has_slice_data

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            synthesize_starwars_trace(n_frames=100, hurst=0.5)

    def test_parameters_dict_complete(self):
        for key in ("n_frames", "mean_frame_bytes", "std_frame_bytes", "hurst", "tail_shape"):
            assert key in STARWARS_PARAMETERS


def lfilter_ar1_path(n, phi, rng):
    """The former ``_ar1_path``: same two draws, then ``scipy.signal.lfilter``."""
    eps = rng.normal(0.0, np.sqrt(1.0 - phi**2), size=n)
    eps[0] = rng.normal(0.0, 1.0)
    return signal.lfilter([1.0], [1.0, -phi], eps)


class TestAR1Path:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 40_000])
    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.7, 0.9, 0.97, 0.999])
    def test_recursion_matches_lfilter_bitwise(self, phi, n):
        mismatches = []
        for seed in range(60):
            y = _ar1_path(n, phi, np.random.default_rng(seed))
            oracle = lfilter_ar1_path(n, phi, np.random.default_rng(seed))
            if (y.dtype, y.shape, y.tobytes()) != (oracle.dtype, oracle.shape, oracle.tobytes()):
                mismatches.append(seed)
        assert mismatches == []

    def test_reference_trace_bytes_pinned(self):
        """sha256 of ``reference_trace(2000)``, recorded with the lfilter path."""
        t = reference_trace(n_frames=2000)
        assert hashlib.sha256(t.frame_bytes.tobytes()).hexdigest() == (
            "fa26ab58add7fcf906897a32bbb79ab533d412b8311b697741952d777b525519"
        )
        assert hashlib.sha256(t.slice_bytes.tobytes()).hexdigest() == (
            "be4d916b764aa3c63b3a41559c3e6df052ff78e749aede6647b6f4c59943e134"
        )


def one_shot_slice_split(frame_bytes, script, slices_per_frame, rng, profile_sd=0.15, frame_sd=0.15):
    """The former ``_slice_split``: every statement over the whole trace at once."""
    n_frames = frame_bytes.size
    spf = slices_per_frame
    n_scenes = len(script.scenes)
    raw = rng.normal(0.0, 1.0, size=(n_scenes, spf))
    for _ in range(2):
        raw = (
            0.5 * raw
            + 0.25 * np.roll(raw, 1, axis=1)
            + 0.25 * np.roll(raw, -1, axis=1)
        )
    profiles = 1.0 + profile_sd * raw / max(raw.std(), 1e-12)
    profiles = np.clip(profiles, 0.05, None)
    scene_of_frame = np.empty(n_frames, dtype=np.intp)
    for index, scene in enumerate(script.scenes):
        scene_of_frame[scene.start_frame : scene.end_frame] = index
    weights = profiles[scene_of_frame]
    weights = weights * np.clip(1.0 + frame_sd * rng.normal(0.0, 1.0, size=(n_frames, spf)), 0.05, None)
    weights /= weights.sum(axis=1, keepdims=True)
    raw_slices = frame_bytes[:, None] * weights
    base = np.floor(raw_slices)
    shortfall = np.rint(frame_bytes - base.sum(axis=1)).astype(np.intp)
    frac = raw_slices - base
    rank = np.argsort(np.argsort(-frac, axis=1, kind="stable"), axis=1)
    base += rank < shortfall[:, None]
    return base.reshape(-1)


def _split_inputs(n_frames, seed):
    """A scene script, integer frame bytes and the generator that follows them."""
    rng = np.random.default_rng(seed)
    script = generate_scene_script(n_frames, rng=rng, duration_tail_shape=1.4, arc_weight=0.6)
    frame_bytes = np.rint(rng.gamma(20.0, 1_400.0, size=n_frames))
    return frame_bytes, script, rng


def _assert_split_matches_oracle(n_frames, seed, slices_per_frame):
    frame_bytes, script, rng = _split_inputs(n_frames, seed)
    oracle_rng = np.random.default_rng()
    oracle_rng.bit_generator.state = rng.bit_generator.state
    got = _slice_split(frame_bytes, script, slices_per_frame, rng)
    want = one_shot_slice_split(frame_bytes, script, slices_per_frame, oracle_rng)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestBlockedSliceSplit:
    """The split runs in frame blocks, byte for byte the one-shot split."""

    @pytest.mark.parametrize("slices_per_frame", [1, 7, 30])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    @pytest.mark.parametrize("n_frames", [1, _SPLIT_BLOCK - 1, _SPLIT_BLOCK, _SPLIT_BLOCK + 1, 40_000])
    def test_matches_one_shot(self, n_frames, seed, slices_per_frame):
        _assert_split_matches_oracle(n_frames, seed, slices_per_frame)

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_matches_one_shot_at_paper_length(self, seed):
        _assert_split_matches_oracle(171_000, seed, 30)

    def test_does_not_depend_on_block_size(self, monkeypatch):
        from repro.video import starwars

        frame_bytes, script, rng = _split_inputs(5_000, 3)
        state = rng.bit_generator.state
        want = _slice_split(frame_bytes, script, 30, rng)
        for block in (1, 7, 4_999, 5_000, 100_000):
            monkeypatch.setattr(starwars, "_SPLIT_BLOCK", block)
            rng.bit_generator.state = state
            assert _slice_split(frame_bytes, script, 30, rng).tobytes() == want.tobytes()
