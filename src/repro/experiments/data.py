"""Shared reference dataset for the experiment suite.

The canonical trace is the calibrated Star-Wars-like synthesis at full
length (171,000 frames).  Generation takes a few seconds, so results
are memoized per (length, seed, slices) within the process; experiment
``run()`` functions accept an explicit trace to override the default.
"""

from __future__ import annotations

import functools

from repro.video.starwars import synthesize_starwars_trace

__all__ = ["DEFAULT_SEED", "reference_trace"]

DEFAULT_SEED = 2024
"""Seed of the canonical reference trace used by benchmarks/examples."""


@functools.lru_cache(maxsize=8)
def reference_trace(n_frames=171_000, seed=DEFAULT_SEED, with_slices=True):
    """The memoized reference :class:`~repro.video.trace.VBRTrace`.

    Parameters mirror :func:`repro.video.starwars.synthesize_starwars_trace`;
    the default is the paper-scale two-hour trace.  Benchmarks that only
    need frame-level data pass ``with_slices=False``: at 171,000 frames
    that takes about 0.35 s and 30 MB of peak-RSS growth instead of
    about 0.7 s and 64 MB, 41 MB of which are the kept slice bytes (at
    40,000 frames: 0.08 s and 8 MB instead of 0.15 s and 17.5 MB).
    """
    return synthesize_starwars_trace(n_frames=n_frames, seed=seed, with_slices=with_slices)
