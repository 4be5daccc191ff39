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

__all__ = ["synthesize_mpeg_trace", "GOP_PATTERN"]

GOP_PATTERN = "IBBPBBPBBPBB"
"""The classical MPEG-1 12-frame GOP."""

_GOP_MULTIPLIERS = np.array([{"I": 5.0, "P": 2.0, "B": 1.0}[ch] for ch in GOP_PATTERN])
"""Per-frame byte multipliers over one GOP: I 5, P 2, B 1."""


def synthesize_mpeg_trace(
    n_frames=20_000,
    seed=0,
    mean=None,
    hurst=0.8,
    frame_rate=24.0,
    slices_per_frame=30,
):
    """Synthesize an MPEG-like (interframe) VBR bandwidth trace.

    The scene-level intraframe synthesis of
    :func:`repro.video.starwars.synthesize_starwars_trace` provides the
    long-range dependent "activity" process; each frame's bytes are
    then scaled by its :data:`GOP_PATTERN` position multiplier (I 5,
    P 2, B 1) and the whole trace rescaled to the requested ``mean``
    (default: the intraframe mean divided by the classical interframe
    compression advantage of ~3, i.e. ~9,260 bytes/frame).

    The result reproduces the published qualitative features of MPEG
    VBR traces: strong GOP-frequency periodicity in the spectrum,
    higher peak/mean and CoV than intraframe coding, and unchanged
    long-range dependence (aggregating over whole GOPs removes the
    deterministic periodicity and exposes the same H).
    """
    from repro.video.starwars import synthesize_starwars_trace

    n_frames = require_positive_int(n_frames, "n_frames")
    base = synthesize_starwars_trace(
        n_frames=n_frames, seed=seed, hurst=hurst, frame_rate=frame_rate,
        with_slices=False,
    )
    activity = base.frame_bytes
    pattern = np.tile(_GOP_MULTIPLIERS, n_frames // _GOP_MULTIPLIERS.size + 1)[:n_frames]
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
