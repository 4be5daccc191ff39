"""Table 1: parameters for generating the VBR video trace.

Two complementary reproductions:

1. ``run_codec`` pushes a procedural movie through the full intraframe
   codec (DCT, quantization, run-length, Huffman) at reduced frame size
   and reports the measured coding parameters -- demonstrating the
   pipeline the paper used end-to-end;
2. ``run`` reports the calibrated reference trace against the paper's
   published Table 1 (duration, frame count, average bandwidth,
   compression ratio for the 480 x 504, 8 bit/pel format).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.data import reference_trace
from repro.video.codec import IntraframeCodec
from repro.video.starwars import STARWARS_PARAMETERS
from repro.video.synthetic import SyntheticMovie

__all__ = ["run", "run_codec", "PAPER"]

PAPER = {
    "duration_hours": 2.0,
    "video_frames": 171_000,
    "frame_height": 480,
    "frame_width": 504,
    "bits_per_pel": 8,
    "frame_rate": 24.0,
    "slices_per_frame": 30,
    "avg_bandwidth_mbps": 5.34,
    "avg_compression_ratio": 8.70,
}
"""The paper's Table 1 values."""


def run(trace=None):
    """Trace-level Table 1 row values (measured vs paper).

    The compression ratio uses the paper's raw format
    (480 x 504 pels x 8 bits) against the trace's measured bytes per
    frame.
    """
    if trace is None:
        trace = reference_trace()
    p = STARWARS_PARAMETERS
    raw_bytes_per_frame = p["frame_height"] * p["frame_width"] * p["bits_per_pel"] / 8.0
    mean_bytes = float(np.mean(trace.frame_bytes))
    return {
        "duration_hours": trace.duration_seconds / 3600.0,
        "video_frames": trace.n_frames,
        "frame_rate": trace.frame_rate,
        "slices_per_frame": trace.slices_per_frame,
        "avg_bandwidth_mbps": trace.mean_rate_bps / 1e6,
        "avg_compression_ratio": raw_bytes_per_frame / mean_bytes,
        "paper": PAPER,
    }


def run_codec(n_frames=48, height=120, width=128, quant_step=16.0, seed=7):
    """Code a procedural movie and measure the codec's Table 1 numbers.

    Frame size defaults to a 1/16-area version of the paper's format,
    which keeps the campaign's codec step short; the compression ratio
    is measured against the actual frame size used.
    """
    codec = IntraframeCodec(quant_step=quant_step, slices_per_frame=30)
    movie = SyntheticMovie(n_frames, height=height, width=width, seed=seed)
    trace = codec.encode_movie(movie)
    raw = height * width
    ratios = raw / np.maximum(trace.frame_bytes, 1.0)
    return {
        "n_frames": trace.n_frames,
        "frame_height": height,
        "frame_width": width,
        "quant_step": quant_step,
        "avg_bandwidth_mbps": trace.mean_rate_bps / 1e6,
        "avg_compression_ratio": float(np.mean(ratios)),
        "mean_bytes_per_frame": float(np.mean(trace.frame_bytes)),
        "trace": trace,
    }
