#!/usr/bin/env python3
"""Deterministic parallelism: same bits at every worker count.

Demonstrates the :mod:`repro.par` execution engine end to end:

- a sweep of whole network topologies fanned out over a process pool
  (the one thing the pool fans out -- each experiment's own grid runs
  in one process), whose output is bit-identical for ``workers = 1``
  and ``workers = 4`` (each spec carries its own inputs, so scheduling
  cannot leak into the results),
- the content-addressed cache making a repeat synthesis cheap, with
  every hit digest-verified before it is served,
- worker-side metrics surviving the pool boundary via the
  child-to-parent merge.

Run:  python examples/parallel_sweep.py [--frames 20000] [--workers 4]
"""

import argparse
import json
import tempfile
import time

import numpy as np

from repro import obs
from repro.net import sweep_topologies
from repro.obs import metrics
from repro.par.cache import using
from repro.video.starwars import synthesize_starwars_trace


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=20_000, help="trace length")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the parallel runs")
    return parser.parse_args()


def one_hop_spec(series, capacity, buffer_bytes):
    """One FIFO hop carrying the trace: the paper's single queue."""
    return {
        "slots": len(series),
        "nodes": [{"name": "a", "buffer_bytes": buffer_bytes}, {"name": "b"}],
        "links": [{"src": "a", "dst": "b", "capacity_per_slot": capacity}],
        "flows": [{"name": "video", "path": ["a", "b"],
                   "source": {"kind": "array", "values": series}}],
    }


def main():
    args = parse_args()

    # --- 1. A topology sweep on the pool, with live metrics ------------
    trace = synthesize_starwars_trace(n_frames=args.frames, seed=5,
                                      with_slices=False)
    series = trace.frame_bytes.tolist()
    mean = float(np.mean(trace.frame_bytes))
    factors = (1.05, 1.1, 1.2, 1.3, 1.5, 2.0)
    specs = [one_hop_spec(series, f * mean, 4.0 * mean) for f in factors]

    def dump(results):
        return json.dumps([{"ports": r["ports"], "flows": r["flows"]}
                           for r in results], sort_keys=True)

    serial = sweep_topologies(specs, workers=1)
    with obs.enabled():
        parallel = sweep_topologies(specs, workers=args.workers)
        registry = metrics.registry().to_dict()
    tasks = sum(
        doc["value"] for key, doc in registry.items()
        if key.startswith("repro_par_pool_tasks_total")
    )
    identical = dump(serial) == dump(parallel)
    print(f"1-hop capacity sweep ({len(specs)} topologies) on {args.workers} workers")
    print(f"  workers=1 vs workers={args.workers}: "
          f"{'bit-identical' if identical else 'MISMATCH'}")
    if not identical:
        raise SystemExit("determinism contract violated")
    print(f"  {int(tasks)} pool tasks merged back into the parent registry")
    for f, result in zip(factors, parallel):
        print(f"  capacity {f:.2f}x mean: loss {result['flows']['video']['loss_rate']:.2e}")

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
