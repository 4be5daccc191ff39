"""Tests for scene scripts and the story arc."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.scenes import Scene, SceneScript, generate_scene_script, story_arc


class TestStoryArc:
    def test_averages_near_one(self):
        t = np.linspace(0, 1, 10_001)
        assert np.mean(story_arc(t)) == pytest.approx(1.0, abs=0.05)

    def test_paper_narrative_shape(self):
        """Intense intro, placid second quarter, climactic finale."""
        intro = story_arc(0.02)
        placid = story_arc(0.28)
        climax = story_arc(0.93)
        assert intro > placid
        assert climax > placid
        assert climax == np.max(story_arc(np.linspace(0, 1, 1001)))

    def test_scalar_and_array(self):
        assert isinstance(story_arc(0.5), float)
        assert story_arc(np.array([0.1, 0.9])).shape == (2,)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            story_arc(1.5)
        with pytest.raises(ValueError):
            story_arc(-0.1)


class TestSceneScript:
    def test_scenes_tile_exactly(self, rng):
        script = generate_scene_script(10_000, rng=rng)
        assert script.scenes[0].start_frame == 0
        assert script.scenes[-1].end_frame == 10_000
        for a, b in zip(script.scenes, script.scenes[1:]):
            assert a.end_frame == b.start_frame

    def test_min_scene_duration_respected(self, rng):
        script = generate_scene_script(20_000, rng=rng, min_scene_frames=24)
        durations = [s.n_frames for s in script.scenes]
        assert min(durations) >= 24

    def test_durations_heavy_tailed(self, rng):
        """Pareto(1.4) durations: the max dwarfs the median."""
        script = generate_scene_script(200_000, rng=rng, duration_tail_shape=1.4)
        durations = np.array([s.n_frames for s in script.scenes])
        assert np.max(durations) > 10 * np.median(durations)

    def test_steeper_tail_means_shorter_max(self, ):
        long_tail = generate_scene_script(
            100_000, rng=np.random.default_rng(5), duration_tail_shape=1.2
        )
        short_tail = generate_scene_script(
            100_000, rng=np.random.default_rng(5), duration_tail_shape=3.0
        )
        assert max(s.n_frames for s in long_tail.scenes) >= max(
            s.n_frames for s in short_tail.scenes
        )

    def test_frame_levels_shape_and_positivity(self, rng):
        script = generate_scene_script(3_000, rng=rng)
        levels = script.frame_levels()
        assert levels.shape == (3_000,)
        assert np.all(levels > 0)

    def test_alternation_produces_two_levels(self):
        scene = Scene(0, 100, level=2.0, activity=1.0, alternation_period=10, alternation_depth=0.5)
        script = SceneScript(n_frames=100, scenes=(scene,))
        levels = script.frame_levels()
        assert set(np.round(np.unique(levels), 6).tolist()) == {1.0, 2.0}
        # Switches every 10 frames.
        assert levels[0] == 2.0
        assert levels[10] == 1.0
        assert levels[20] == 2.0

    def test_validation_rejects_gaps(self):
        s1 = Scene(0, 10, 1.0, 1.0)
        s3 = Scene(20, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            SceneScript(n_frames=30, scenes=(s1, s3))

    def test_validation_rejects_wrong_total(self):
        s1 = Scene(0, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            SceneScript(n_frames=20, scenes=(s1,))

    def test_validation_rejects_empty(self):
        with pytest.raises(ValueError):
            SceneScript(n_frames=0, scenes=())

    def test_arc_weight_zero_flattens_levels(self):
        flat = generate_scene_script(
            50_000, rng=np.random.default_rng(9), arc_weight=0.0, level_sigma=1e-6
        )
        levels = np.array([s.level for s in flat.scenes])
        np.testing.assert_allclose(levels, 1.0, rtol=1e-3)


@settings(max_examples=25, deadline=None)
@given(
    n_frames=st.integers(min_value=100, max_value=20_000),
    seed=st.integers(0, 1000),
)
def test_script_tiling_property(n_frames, seed):
    """Property: any generated script exactly tiles [0, n_frames)."""
    script = generate_scene_script(n_frames, rng=np.random.default_rng(seed))
    total = sum(s.n_frames for s in script.scenes)
    assert total == n_frames
    assert script.frame_levels().shape == (n_frames,)
