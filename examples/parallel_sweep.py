#!/usr/bin/env python3
"""Deterministic parallelism: same bits at every worker count.

Demonstrates the :mod:`repro.par` execution engine end to end:

- a Q-C capacity sweep fanned out over a seeded process pool, whose
  output is bit-identical for ``workers = 1`` and ``workers = 4``
  (seeds derive from task *index*, never from scheduling),
- the content-addressed cache making a repeat sweep cheap, with every
  hit digest-verified before it is served,
- worker-side metrics surviving the pool boundary via the
  child-to-parent merge.

Run:  python examples/parallel_sweep.py [--frames 20000] [--workers 4]
"""

import argparse
import tempfile
import time

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.par.cache import using
from repro.simulation.qc import qc_curve
from repro.video.starwars import synthesize_starwars_trace


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=20_000, help="trace length")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the parallel runs")
    return parser.parse_args()


def main():
    args = parse_args()

    # --- 1. A Q-C sweep on the pool, with live metrics -----------------
    trace = synthesize_starwars_trace(n_frames=args.frames, seed=5,
                                      with_slices=False)
    slot_seconds = 1.0 / trace.frame_rate

    def sweep(workers):
        return qc_curve(
            trace.frame_bytes, slot_seconds, n_sources=5, target_loss=1e-3,
            n_points=6, n_lag_draws=2, rng=np.random.default_rng(1),
            workers=workers,
        )

    serial = sweep(1)
    with obs.enabled():
        curve = sweep(args.workers)
        dump = metrics.registry().to_dict()
    tasks = sum(
        doc["value"] for key, doc in dump.items()
        if key.startswith("repro_par_pool_tasks_total")
    )
    identical = (np.array_equal(serial.capacity_per_source, curve.capacity_per_source)
                 and np.array_equal(serial.tmax_ms, curve.tmax_ms))
    print(f"Q-C sweep (N = 5) on {args.workers} workers")
    print(f"  workers=1 vs workers={args.workers}: "
          f"{'bit-identical' if identical else 'MISMATCH'}")
    if not identical:
        raise SystemExit("determinism contract violated")
    print(f"  {curve.capacity_per_source.size} capacity points, "
          f"{int(tasks)} pool tasks merged back into the parent registry")
    knee = int(np.argmin(np.abs(curve.tmax_ms - 2.0)))
    print(f"  near T_max = 2 ms: C/N = {curve.capacity_per_source_mbps[knee]:.2f} Mb/s")

    # --- 2. The content cache makes the repeat run cheap ---------------
    with tempfile.TemporaryDirectory() as cache_dir:
        with using(cache_dir):
            started = time.perf_counter()
            cold = synthesize_starwars_trace(n_frames=args.frames, seed=5,
                                             with_slices=False)
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = synthesize_starwars_trace(n_frames=args.frames, seed=5,
                                             with_slices=False)
            warm_s = time.perf_counter() - started
    assert np.array_equal(cold.frame_bytes, warm.frame_bytes)
    assert np.array_equal(cold.frame_bytes, trace.frame_bytes)
    print("\nContent-addressed cache (digest-verified on every hit)")
    print(f"  cold synthesis {cold_s * 1e3:.0f} ms, warm hit {warm_s * 1e3:.0f} ms "
          f"({cold_s / max(warm_s, 1e-9):.0f}x); cached == uncached bit-for-bit")


if __name__ == "__main__":
    main()
