#!/usr/bin/env python3
"""Quickstart: synthesize VBR video traffic and plan network capacity.

This walks the library's core loop in under a minute:

1. synthesize a calibrated Star-Wars-like VBR trace;
2. fit the four-parameter Garrett-Willinger model to it;
3. generate synthetic traffic from the fitted model;
4. multiplex several sources through a finite-buffer FIFO queue and
   find the capacity that meets a loss target.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import VBRVideoModel
from repro.experiments.reporting import format_kv, format_table
from repro.simulation.multiplex import multiplex_series, random_lags
from repro.simulation.qc import required_capacity
from repro.video.starwars import synthesize_starwars_trace


def main():
    rng = np.random.default_rng(2024)

    # 1. A 20,000-frame (~14 minute) trace with the paper's statistics.
    print("Synthesizing a calibrated VBR video trace ...")
    trace = synthesize_starwars_trace(n_frames=20_000, seed=7)
    summary = trace.summary("frame")
    print(format_kv(summary.format_rows(), title="\nTrace statistics (Table 2 style):"))

    # 2. Fit the four-parameter model: Gamma/Pareto marginal + Hurst.
    model = VBRVideoModel.fit(trace.frame_bytes)
    print("\nFitted model:", model)

    # 3. Generate synthetic traffic with the same statistics.
    synthetic = model.generate(20_000, rng=rng, generator="davies-harte")
    rows = [
        ["mean (bytes/frame)", f"{trace.frame_bytes.mean():.0f}", f"{synthetic.mean():.0f}"],
        ["std (bytes/frame)", f"{trace.frame_bytes.std():.0f}", f"{synthetic.std():.0f}"],
        ["peak/mean", f"{trace.frame_bytes.max() / trace.frame_bytes.mean():.2f}",
         f"{synthetic.max() / synthetic.mean():.2f}"],
    ]
    print()
    print(format_table(["statistic", "trace", "model"], rows, title="Trace vs model traffic:"))

    # 4. Capacity planning: five multiplexed sources, 100 ms of buffer,
    #    overall loss at most 1e-4.
    n_sources = 5
    lags = random_lags(n_sources, trace.n_frames, min_separation=1000, rng=rng)
    arrivals = multiplex_series(trace.frame_bytes, lags)
    slot_seconds = 1.0 / trace.frame_rate
    buffer_bytes = 0.100 * arrivals.mean() / slot_seconds  # ~100 ms at mean rate
    capacity = required_capacity([arrivals], buffer_bytes, target_loss=1e-4)
    per_source_mbps = capacity / n_sources * 8 / slot_seconds / 1e6
    mean_mbps = trace.mean_rate_bps / 1e6
    peak_mbps = trace.frame_bytes.max() * 8.0 * trace.frame_rate / 1e6
    print(
        f"\nCapacity planning for {n_sources} multiplexed sources "
        f"(buffer ~100 ms, loss <= 1e-4):\n"
        f"  required capacity per source: {per_source_mbps:.2f} Mb/s\n"
        f"  (single-source mean rate: {mean_mbps:.2f} Mb/s, peak: {peak_mbps:.2f} Mb/s)\n"
        f"  multiplexing recovers "
        f"{(peak_mbps - per_source_mbps) / (peak_mbps - mean_mbps):.0%} "
        f"of the peak-to-mean gap."
    )


if __name__ == "__main__":
    main()
