"""Procedural movie generator: luminance frames for the codec.

The paper's trace was produced by coding a real film, which is
proprietary and computationally enormous (6 weeks of 1990 CPU time).
:class:`SyntheticMovie` renders a procedural stand-in: a scene script
(:mod:`repro.video.scenes`) drives per-scene backgrounds, textured
detail whose amplitude follows the scene's complexity level, camera
motion, and occasional high-spatial-frequency "special effect" bursts.
Because the intraframe codec's bit production is governed by spatial
complexity and the scene structure controls how complexity evolves in
time, the coded bandwidth of a synthetic movie reproduces the
qualitative behaviour of the paper's trace: Gamma-ish body, bursty
peaks during effects, and scene-scale correlation.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_in_closed_interval, require_positive_int
from repro.video.scenes import generate_scene_script

__all__ = ["SyntheticMovie"]


def _smooth2d(field, passes=2):
    """Cheap separable box smoothing (keeps everything in numpy)."""
    out = field
    for _ in range(passes):
        out = (np.roll(out, 1, axis=0) + out + np.roll(out, -1, axis=0)) / 3.0
        out = (np.roll(out, 1, axis=1) + out + np.roll(out, -1, axis=1)) / 3.0
    return out


class SyntheticMovie:
    """Iterable of procedurally generated monochrome frames.

    Parameters
    ----------
    n_frames:
        Number of frames to render.
    height, width:
        Frame dimensions in pels.  Defaults (120 x 128) are a scaled
        version of the paper's 480 x 504 format, keeping the codec
        pipeline cheap.
    seed:
        Seed for the deterministic random generator.
    effect_probability:
        Per-scene probability of a high-frequency special-effect burst
        (the paper's "jump to hyperspace" analog).
    script_kwargs:
        Extra keyword arguments for
        :func:`repro.video.scenes.generate_scene_script`.

    Iterating the object yields ``uint8`` arrays of shape
    ``(height, width)``; iteration can be repeated (each pass renders
    the same movie, because the generator is re-seeded).
    """

    def __init__(
        self,
        n_frames,
        height=120,
        width=128,
        seed=0,
        effect_probability=0.04,
        **script_kwargs,
    ):
        self.n_frames = require_positive_int(n_frames, "n_frames")
        self.height = require_positive_int(height, "height")
        self.width = require_positive_int(width, "width")
        self.seed = int(seed)
        self.effect_probability = require_in_closed_interval(
            effect_probability, "effect_probability", 0.0, 1.0
        )
        self._script_kwargs = dict(script_kwargs)
        rng = np.random.default_rng(self.seed)
        self.script = generate_scene_script(self.n_frames, rng=rng, **self._script_kwargs)

    def __len__(self):
        return self.n_frames

    def __iter__(self):
        """Render the movie frame by frame (deterministic per seed)."""
        rng = np.random.default_rng(self.seed + 1)
        h, w = self.height, self.width
        margin = 16
        yy = np.linspace(0.0, 1.0, h).reshape(-1, 1)
        xx = np.linspace(0.0, 1.0, w).reshape(1, -1)
        for scene in self.script.scenes:
            # Per-scene static background: a smooth gradient + blobs.
            angle = rng.uniform(0.0, 2 * np.pi)
            base = 110.0 + 60.0 * (np.cos(angle) * yy + np.sin(angle) * xx)
            blobs = _smooth2d(rng.normal(0.0, 1.0, size=(h, w)), passes=6)
            background = base + 25.0 * blobs
            # Texture field larger than the frame so it can be panned.
            texture = rng.normal(0.0, 1.0, size=(h + 2 * margin, w + 2 * margin))
            fine = texture
            coarse = _smooth2d(texture, passes=3)
            detail_amp = 14.0 * scene.level
            is_effect = rng.uniform() < self.effect_probability
            pan_speed = scene.activity * 1.5
            pan_angle = rng.uniform(0.0, 2 * np.pi)
            for k in range(scene.n_frames):
                dy = int(round(margin + pan_speed * k * np.sin(pan_angle))) % margin
                dx = int(round(margin + pan_speed * k * np.cos(pan_angle))) % margin
                window_fine = fine[dy : dy + h, dx : dx + w]
                window_coarse = coarse[dy : dy + h, dx : dx + w]
                frame = background + detail_amp * (0.5 * window_fine + 1.5 * window_coarse)
                if is_effect:
                    # High-spatial-frequency burst: expensive to code.
                    frame = frame + 45.0 * rng.normal(0.0, 1.0, size=(h, w))
                # Small amount of sensor noise every frame.
                frame = frame + rng.normal(0.0, 1.0, size=(h, w))
                yield np.clip(frame, 0.0, 255.0).astype(np.uint8)

    def render(self):
        """Materialize all frames as one ``(n, h, w)`` uint8 array."""
        return np.stack(list(self))

    def __repr__(self):
        return (
            f"SyntheticMovie(n_frames={self.n_frames}, height={self.height}, "
            f"width={self.width}, seed={self.seed})"
        )
