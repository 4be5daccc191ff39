"""Interframe (MPEG-style) traffic: the paper's noted extension.

The paper studies an *intraframe* code and remarks that "greater
compression, burstiness and much stronger dependence on motion result
from interframe coding" and that its main results "do seem to extend to
interframe (MPEG) video as well [GARR93a]" (see also [PANC94]).
:func:`synthesize_mpeg_trace` builds that extension at the bandwidth
level: the calibrated scene-level process of
:mod:`repro.video.starwars` modulated by a deterministic I/P/B GOP
pattern, reproducing the strong frame-rate periodicities and the
higher burstiness reported for MPEG VBR video.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.video.trace import VBRTrace

__all__ = ["synthesize_mpeg_trace", "DEFAULT_GOP_PATTERN"]

DEFAULT_GOP_PATTERN = "IBBPBBPBBPBB"
"""The classical MPEG-1 12-frame GOP."""


def _gop_multipliers(pattern, i_scale, p_scale, b_scale):
    """Per-frame-type byte multipliers for one GOP pattern."""
    mapping = {"I": i_scale, "P": p_scale, "B": b_scale}
    try:
        return np.array([mapping[ch] for ch in pattern], dtype=float)
    except KeyError as exc:
        raise ValueError(f"GOP pattern may only contain I/P/B, got {exc.args[0]!r}") from None


def synthesize_mpeg_trace(
    n_frames=20_000,
    seed=0,
    gop_pattern=DEFAULT_GOP_PATTERN,
    i_scale=5.0,
    p_scale=2.0,
    b_scale=1.0,
    mean=None,
    hurst=0.8,
    frame_rate=24.0,
    slices_per_frame=30,
):
    """Synthesize an MPEG-like (interframe) VBR bandwidth trace.

    The scene-level intraframe synthesis of
    :func:`repro.video.starwars.synthesize_starwars_trace` provides the
    long-range dependent "activity" process; each frame's bytes are
    then scaled by its GOP-position multiplier (I >> P > B) and the
    whole trace rescaled to the requested ``mean`` (default: the
    intraframe mean divided by the classical interframe compression
    advantage of ~3, i.e. ~9,260 bytes/frame).

    The result reproduces the published qualitative features of MPEG
    VBR traces: strong GOP-frequency periodicity in the spectrum,
    higher peak/mean and CoV than intraframe coding, and unchanged
    long-range dependence (aggregating over whole GOPs removes the
    deterministic periodicity and exposes the same H).
    """
    from repro.video.starwars import synthesize_starwars_trace

    n_frames = require_positive_int(n_frames, "n_frames")
    if not gop_pattern or not isinstance(gop_pattern, str):
        raise ValueError("gop_pattern must be a non-empty string of I/P/B")
    if gop_pattern[0] != "I":
        raise ValueError("gop_pattern must start with an I frame")
    i_scale = require_positive(i_scale, "i_scale")
    p_scale = require_positive(p_scale, "p_scale")
    b_scale = require_positive(b_scale, "b_scale")
    base = synthesize_starwars_trace(
        n_frames=n_frames, seed=seed, hurst=hurst, frame_rate=frame_rate,
        with_slices=False,
    )
    activity = base.frame_bytes
    multipliers = _gop_multipliers(gop_pattern, i_scale, p_scale, b_scale)
    pattern = np.tile(multipliers, n_frames // multipliers.size + 1)[:n_frames]
    x = activity * pattern
    if mean is None:
        mean = float(np.mean(activity)) / 3.0
    mean = require_positive(mean, "mean")
    x *= mean / np.mean(x)
    return VBRTrace(
        np.rint(np.maximum(x, 1.0)),
        frame_rate=frame_rate,
        slices_per_frame=slices_per_frame,
    )
