"""Shard-parallel fractional-Gaussian-noise generation.

The streaming layer already generates unbounded approximate fGn by
stitching fixed-size synthesizer blocks over a cross-faded overlap
(:class:`repro.stream.sources.BlockFGNSource`).  :func:`shard_fgn`
applies the same construction *spatially*: the target length ``n`` is
cut into shards at multiples of ``shard_size``, each shard's samples
are synthesized independently by the unmodified serial generator
(Davies-Harte exact per shard, or Paxson approximate per shard) under
a seed derived from the **shard index**, and consecutive shards are
joined over the ``overlap`` window by the same stitch loop,
:func:`repro.core.fgn.stitch_blocks`, whose complementary
``cos``/``sin`` weights preserve the Gaussian marginal exactly
(``cos^2 + sin^2 = 1``).

Because shard boundaries depend only on ``(n, shard_size)`` and shard
seeds only on ``(seed, shard index)``, the assembled path is a pure
function of ``(backend, hurst, variance, n, shard_size, overlap,
seed)`` — the worker count changes wall-clock time and nothing else.
That is the determinism contract the tier-1 test wall enforces
bit-for-bit at ``workers in {1, 2, 5}`` and odd shard boundaries.

The ``hosking`` backend is the paper's *exact* conditional recursion:
every point conditions on the entire past, so it is not blockwise in
:mod:`repro.core.fgn`'s table and cannot be sharded
without changing the process.  It is kept serial-exact —
``shard_fgn(..., backend="hosking")`` is byte-identical to
:func:`repro.core.hosking.hosking_farima` for the same ``(H, n,
seed)`` at any ``workers`` — and its speed comes instead from the
scratch-buffer Levinson inner loop in :mod:`repro.core.hosking` and
the fARIMA autocorrelation table served by :mod:`repro.par.cache`.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    require_in_open_interval,
    require_positive,
    require_positive_int,
)
from repro.core.fgn import fgn_backend, fgn_generator, stitch_blocks
from repro.obs import metrics, trace
from repro.par.pool import pool_map

__all__ = ["shard_fgn", "shard_plan"]

_SHARDS = metrics.registry().counter(
    "repro_par_shards_total",
    help="fGn shards synthesized by shard_fgn",
    unit="shards",
)


def shard_plan(n, shard_size):
    """``[(start, length), ...]`` shard boundaries — a function of ``(n, shard_size)`` only."""
    n = require_positive_int(n, "n")
    shard_size = require_positive_int(shard_size, "shard_size")
    return [
        (start, min(shard_size, n - start)) for start in range(0, n, shard_size)
    ]


def _synthesize_shard(item, task_seed):
    """Pool task: one shard's raw samples from the serial generator.

    ``item`` is ``(backend, hurst, variance, raw_len)``; the rng is
    built from the sha256-derived per-shard seed, so the draw depends
    on the shard index alone.
    """
    backend, hurst, variance, raw_len = item
    rng = np.random.default_rng(task_seed)
    raw = fgn_generator(backend, hurst, variance).generate(raw_len, rng=rng)
    _SHARDS.inc()
    return raw


def shard_fgn(n, hurst, *, backend="paxson", variance=1.0, seed=0,
              shard_size=65_536, overlap=1_024, workers=1):
    """Generate an fGn path of length ``n``, sharded across workers.

    Parameters
    ----------
    n, hurst, variance:
        Path length and marginal parameters (``hurst`` in the open
        stationary range ``(0, 1)``).
    backend:
        A :mod:`repro.core.fgn` backend name: ``"paxson"`` (approximate
        per shard), ``"davies-harte"`` (exact per shard), or
        ``"hosking"`` (not blockwise: the exact full-path recursion,
        run serially regardless of ``workers``).
    seed:
        Base seed; shard ``i`` draws from
        ``default_rng(derive_task_seed(seed, i, label="shard"))``.
    shard_size, overlap:
        Shard boundary spacing and the seam cross-fade width
        (``0 <= overlap < shard_size``).  Both are part of the output's
        identity: changing either changes the path, changing
        ``workers`` never does.
    workers:
        Process count for shard synthesis (via
        :func:`repro.par.pool.pool_map`).

    Returns the assembled float64 path of exactly ``n`` samples.
    """
    n = require_positive_int(n, "n")
    require_in_open_interval(hurst, "hurst", 0.0, 1.0)
    require_positive(variance, "variance")
    shard_size = require_positive_int(shard_size, "shard_size")
    overlap = int(overlap)
    if not 0 <= overlap < shard_size:
        raise ValueError(
            f"overlap must lie in [0, shard_size), got {overlap} with "
            f"shard_size {shard_size}"
        )
    if not fgn_backend(backend).blockwise:
        # Exact conditional recursion: serial by construction, identical
        # to hosking_farima(n, hurst, variance, rng=default_rng(seed)).
        with trace.span("par.shard_fgn", backend=backend, n=n, shards=1):
            rng = np.random.default_rng(int(seed))
            path = fgn_generator(backend, hurst, variance).generate(n, rng=rng)
        _SHARDS.inc()
        return path

    plan = shard_plan(n, shard_size)
    with trace.span("par.shard_fgn", backend=backend, n=n, shards=len(plan)):
        items = [
            (backend, float(hurst), float(variance), length + overlap)
            for _, length in plan
        ]
        raws = pool_map(
            _synthesize_shard, items,
            workers=workers, base_seed=int(seed), label="shard",
        )
        return np.concatenate(list(stitch_blocks(raws, overlap)))
