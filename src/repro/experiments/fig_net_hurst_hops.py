"""Network extension: does self-similarity survive multi-hop queueing?

The paper's central warning is that long-range dependence in VBR video
defeats buffer sizing based on short-range models.  A natural
follow-up for networks: does the dependence *persist* once the traffic
has been shaped by a chain of finite-capacity queues, or does
store-and-forward smoothing launder it away?

One flow (the reference trace) is pushed through a 3-hop tandem with
per-hop series recording; the Hurst exponent of the departure process
after each hop is then estimated with the paper's own tools
(variance-time analysis and R/S pox, Section 2).  Hop 0 is the
untouched input series, so the estimates are directly comparable.

Expected finding -- and what the golden digest pins -- is that ``H``
stays far above the 0.5 of short-range models at every hop: queueing
clips the peaks (utilization rises, marginal variance falls) but the
low-frequency structure that drives buffer requirements rides through
the tandem essentially intact.  Smoothing is *not* whitening.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive_int
from repro.analysis.hurst import rs_pox, variance_time
from repro.experiments.data import reference_trace
from repro.experiments.fig_net_tandem import tandem_spec
from repro.net import run_topology

__all__ = ["run"]


def run(trace=None, n_frames=8_000, unit="frame"):
    """Estimate H of the traffic after each hop of a three-hop tandem.

    The hops have equal capacity, 1.1 times the mean rate: the
    interesting regime is moderate overload of the *same* bottleneck
    repeated, so no taper here, and slightly above 1 keeps the queues
    busy without starving the tail.  Each hop's buffer is a 250 ms
    delay bound (generous, so loss stays a perturbation rather than the
    dominant effect).

    Parameters
    ----------
    trace:
        Source trace; defaults to the reference trace truncated to
        ``n_frames``.

    Returns per-hop arrays (hop 0 = the input series): Hurst estimates
    from both estimators, utilization, marginal statistics, and the
    per-hop loss rates.
    """
    if trace is None:
        trace = reference_trace()
    n_frames = require_positive_int(n_frames, "n_frames")
    if trace.n_frames > n_frames:
        trace = trace.segment(0, n_frames)
    hops = 3
    series = trace.series(unit)
    slot_seconds = trace.time_unit_ms(unit) / 1000.0
    capacity = 1.1 * float(np.mean(series))
    buffer_bytes = 250.0 / 1e3 * capacity / slot_seconds

    spec = tandem_spec(series, [capacity] * hops, buffer_bytes, record_series=True)
    result = run_topology(spec)

    stages = [("input", np.asarray(series, dtype=float))]
    for name, port in result["ports"].items():
        stages.append((name, np.asarray(result["series"][name]["departures"])))

    hurst_vt = []
    hurst_rs = []
    means = []
    stds = []
    for _, data in stages:
        hurst_vt.append(float(variance_time(data).hurst))
        hurst_rs.append(float(rs_pox(data).hurst))
        means.append(float(np.mean(data)))
        stds.append(float(np.std(data)))

    ports = list(result["ports"].values())
    return {
        "stages": tuple(name for name, _ in stages),
        "hurst_variance_time": np.array(hurst_vt),
        "hurst_rs": np.array(hurst_rs),
        "mean_bytes_per_slot": np.array(means),
        "std_bytes_per_slot": np.array(stds),
        "utilization": np.array([p["utilization"] for p in ports]),
        "loss_rate": np.array([p["loss_rate"] for p in ports]),
        "mean_delay_slots": np.array([p["mean_delay_slots"] for p in ports]),
        "capacity_per_slot": capacity,
        "buffer_bytes": float(buffer_bytes),
        "hops": hops,
        "n_frames": trace.n_frames,
        "unit": unit,
    }
