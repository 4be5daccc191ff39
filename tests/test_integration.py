"""End-to-end integration tests tying the whole pipeline together.

Each test follows one of the paper's narrative arcs across multiple
subsystems: code a movie -> analyse the trace; synthesize a trace ->
fit the model -> generate -> queue; save -> load -> re-analyse.
"""

import numpy as np
import pytest

from repro.core.model import VBRVideoModel
from repro.simulation.qc import qc_curve
from repro.simulation.queue import max_backlog, simulate_queue
from repro.video.codec import IntraframeCodec
from repro.video.starwars import synthesize_starwars_trace
from repro.video.synthetic import SyntheticMovie
from repro.video.tracefile import load_trace, save_trace


class TestCodecToAnalysisPipeline:
    def test_coded_movie_bandwidth_tracks_scene_complexity(self):
        """The codec's byte output correlates with the scene script's
        complexity levels -- the mechanism behind the whole paper."""
        movie = SyntheticMovie(60, height=48, width=64, seed=11, min_scene_frames=10)
        codec = IntraframeCodec(quant_step=16.0, slices_per_frame=6)
        trace = codec.encode_movie(movie)
        levels = movie.script.frame_levels()
        corr = np.corrcoef(trace.frame_bytes, levels)[0, 1]
        assert corr > 0.4

    def test_coded_trace_analysable(self):
        movie = SyntheticMovie(40, height=48, width=64, seed=12)
        codec = IntraframeCodec(quant_step=16.0, slices_per_frame=6)
        trace = codec.encode_movie(movie)
        summary = trace.summary("frame")
        assert summary.peak_to_mean >= 1.0
        assert summary.mean > 0


class TestModelRoundtrip:
    def test_fit_generate_queue_close_to_source(self):
        """Fit the model to the synthetic trace, generate traffic, and
        compare zero-loss capacity requirements -- a miniature Fig. 16."""
        trace = synthesize_starwars_trace(n_frames=12_000, seed=21, with_slices=False)
        x = trace.frame_bytes
        model = VBRVideoModel.fit(x)
        y = model.generate(x.size, rng=np.random.default_rng(0), generator="davies-harte")
        curve_x = qc_curve(x, 1 / 24.0, 1, 0.0, n_points=5, rng=np.random.default_rng(1))
        # The zero-loss buffer of one source is its maximum backlog.
        buffer_y = np.array([max_backlog(y, c) for c in curve_x.capacity_per_source])
        # Same capacity grid: buffer requirements within one order of
        # magnitude everywhere (the paper reports a visible but bounded
        # offset).
        ratio = (buffer_y + 1e4) / (curve_x.buffer_bytes + 1e4)
        assert np.all(ratio < 30)
        assert np.all(ratio > 1 / 30)

    def test_model_traffic_survives_queueing(self):
        model = VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)
        y = model.generate(5_000, rng=np.random.default_rng(5), generator="davies-harte")
        result = simulate_queue(y, float(np.mean(y)) * 1.2, 500_000.0)
        assert result.loss_rate < 0.05


class TestPersistenceRoundtrip:
    def test_save_load_analyse(self, tmp_path):
        trace = synthesize_starwars_trace(n_frames=3_000, seed=31)
        path = tmp_path / "sw.trace"
        save_trace(trace, path, unit="slice")
        loaded = load_trace(path)
        np.testing.assert_allclose(loaded.frame_bytes, trace.frame_bytes)
        s1 = trace.summary("slice")
        s2 = loaded.summary("slice")
        assert s1.mean == pytest.approx(s2.mean)
        assert s1.std == pytest.approx(s2.std)


class TestPaperHeadlines:
    """The paper's abstract, verified end-to-end on the reference data."""

    def test_heavy_tailed_marginal(self, small_series):
        """'the tail behavior ... can be accurately described using
        heavy-tailed distributions (e.g. Pareto)'."""
        from repro.experiments import fig04_ccdf
        from repro.video.trace import VBRTrace

        result = fig04_ccdf.run(VBRTrace(small_series))
        assert result["ranking"][0] in ("pareto", "gamma_pareto")

    def test_long_range_dependence(self, small_series):
        """'the autocorrelation ... decays hyperbolically'."""
        from repro.analysis.hurst import variance_time

        assert variance_time(small_series).hurst > 0.7

    def test_multiplexing_efficiency(self, small_series):
        """'statistical multiplexing results in significant bandwidth
        efficiency even when long-range dependence is present'."""
        from repro.simulation.qc import smg_curve

        smg = smg_curve(
            small_series[:10_000],
            1 / 24.0,
            n_values=(1, 5),
            target_loss=0.0,
            min_separation=500,
            rng=np.random.default_rng(2),
            n_lag_draws=3,
        )
        assert smg["gain_fraction"][1] > 0.5
