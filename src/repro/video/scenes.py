"""Scene scripts: the hierarchical time structure of a movie.

The paper explains the intuition for long-range dependence in
entertainment video (Section 3.2.1): within a scene there is random
motion; camera changes shift the complexity level on a longer time
scale; scenes cluster into similar-type groups as the plot evolves; and
the story arc modulates everything on the scale of the whole film
(Fig. 2's description: intense introduction, placid second quarter,
building conflict, a slight pause, then a climactic finale).

This module generates that hierarchy explicitly:

- scene *durations* are heavy-tailed (Pareto), which by itself induces
  long-range dependence in the resulting level process (the classical
  heavy-tailed renewal argument gives ``H = (3 - alpha) / 2``);
- scene *levels* follow an AR(1) across scenes (clustering) around the
  deterministic-shaped story arc;
- some scenes *alternate* between two levels, imitating the camera
  switching between two viewpoints (e.g. a dialogue), a short-range
  feature the paper observes in the intraframe trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import require_positive, require_positive_int

__all__ = ["Scene", "SceneScript", "generate_scene_script", "story_arc"]

# Control points (position in [0,1], relative complexity) following the
# paper's narrative description of the movie's pacing.
_ARC_POSITIONS = np.array([0.00, 0.04, 0.10, 0.25, 0.35, 0.50, 0.62, 0.70, 0.82, 0.93, 0.97, 1.00])
_ARC_LEVELS = np.array([1.18, 1.12, 0.95, 0.86, 0.88, 1.00, 1.06, 0.99, 1.10, 1.22, 1.08, 1.02])


def story_arc(t):
    """Relative complexity level of the story arc at position ``t``.

    ``t`` is the fraction of the movie elapsed, in [0, 1]; the returned
    multiplier averages ~1.  Evaluated by interpolation through control
    points that encode: intense introduction, placid second quarter,
    rising conflict, slight pause, climactic finale.
    """
    t = np.asarray(t, dtype=float)
    if np.any((t < 0) | (t > 1)):
        raise ValueError("story-arc position t must lie in [0, 1]")
    out = np.interp(t, _ARC_POSITIONS, _ARC_LEVELS)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Scene:
    """One scene of a movie."""

    start_frame: int
    """First frame index of the scene."""

    n_frames: int
    """Scene duration in frames."""

    level: float
    """Relative complexity level (multiplier around 1)."""

    activity: float
    """Relative motion/within-scene variability (multiplier around 1)."""

    alternation_period: int = 0
    """If > 0, the scene alternates viewpoint every this many frames."""

    alternation_depth: float = 0.0
    """Relative level difference between the two alternating views."""

    @property
    def end_frame(self):
        """One past the scene's final frame index."""
        return self.start_frame + self.n_frames


@dataclass(frozen=True)
class SceneScript:
    """A full movie's worth of scenes."""

    n_frames: int
    """Total number of frames covered."""

    scenes: tuple = field(repr=False)
    """The scenes, in order, exactly tiling ``[0, n_frames)``."""

    def __post_init__(self):
        if not self.scenes:
            raise ValueError("a scene script must contain at least one scene")
        position = 0
        for scene in self.scenes:
            if scene.start_frame != position:
                raise ValueError(
                    f"scene starting at {scene.start_frame} does not tile the script "
                    f"(expected start {position})"
                )
            position = scene.end_frame
        if position != self.n_frames:
            raise ValueError(f"scenes cover {position} frames, script declares {self.n_frames}")

    def __len__(self):
        return len(self.scenes)

    def frame_levels(self):
        """Per-frame relative complexity level, including alternation.

        Alternating scenes switch between ``level`` and
        ``level * (1 - alternation_depth)`` every
        ``alternation_period`` frames, imitating camera cuts between
        two viewpoints.
        """
        out = np.empty(self.n_frames)
        for scene in self.scenes:
            sl = slice(scene.start_frame, scene.end_frame)
            if scene.alternation_period > 0 and scene.alternation_depth > 0:
                local = np.arange(scene.n_frames) // scene.alternation_period
                view_b = (local % 2).astype(bool)
                levels = np.where(view_b, scene.level * (1.0 - scene.alternation_depth), scene.level)
                out[sl] = levels
            else:
                out[sl] = scene.level
        return out


def generate_scene_script(
    n_frames,
    rng=None,
    min_scene_frames=24,
    duration_tail_shape=1.4,
    cluster_phi=0.6,
    level_sigma=0.22,
    arc_weight=1.0,
    alternation_probability=0.18,
):
    """Generate a random scene script with heavy-tailed scene durations.

    Parameters
    ----------
    n_frames:
        Total length of the movie in frames.
    rng:
        :class:`numpy.random.Generator`.
    min_scene_frames:
        Minimum scene duration (Pareto location ``k``); 24 frames = 1 s.
    duration_tail_shape:
        Pareto shape ``alpha`` for scene durations.  ``1 < alpha < 2``
        gives infinite-variance durations and long-range dependence with
        ``H = (3 - alpha) / 2`` (1.4 -> H = 0.8).
    cluster_phi:
        AR(1) coefficient of the scene-to-scene level clustering.
    level_sigma:
        Standard deviation of the per-scene log-level innovation.
    arc_weight:
        Exponent applied to the story-arc multiplier (0 disables it).
    alternation_probability:
        Probability that a scene alternates between two viewpoints.
    """
    n_frames = require_positive_int(n_frames, "n_frames")
    min_scene_frames = require_positive_int(min_scene_frames, "min_scene_frames")
    duration_tail_shape = require_positive(duration_tail_shape, "duration_tail_shape")
    if rng is None:
        rng = np.random.default_rng()
    scenes = []
    position = 0
    cluster = 0.0
    innovation_sd = level_sigma * np.sqrt(max(1.0 - cluster_phi**2, 1e-12))
    while position < n_frames:
        u = rng.uniform()
        duration = int(np.ceil(min_scene_frames * (1.0 - u) ** (-1.0 / duration_tail_shape)))
        duration = min(duration, n_frames - position)
        # Avoid a stub scene shorter than the minimum at the very end.
        if n_frames - (position + duration) < min_scene_frames:
            duration = n_frames - position
        cluster = cluster_phi * cluster + rng.normal(0.0, innovation_sd)
        t_mid = (position + duration / 2.0) / n_frames
        level = float(story_arc(t_mid) ** arc_weight * np.exp(cluster))
        activity = float(np.exp(rng.normal(0.0, 0.3)))
        if rng.uniform() < alternation_probability and duration >= 4 * min_scene_frames:
            period = int(rng.integers(12, 40))
            depth = float(rng.uniform(0.05, 0.3))
        else:
            period, depth = 0, 0.0
        scenes.append(
            Scene(
                start_frame=position,
                n_frames=duration,
                level=level,
                activity=activity,
                alternation_period=period,
                alternation_depth=depth,
            )
        )
        position += duration
    return SceneScript(n_frames=n_frames, scenes=tuple(scenes))
