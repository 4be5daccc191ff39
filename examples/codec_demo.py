#!/usr/bin/env python3
"""The intraframe video codec, end to end (Section 2 of the paper).

Renders a short procedural movie, codes it with the DCT / run-length /
Huffman intraframe codec (the paper's "essentially JPEG" coder with a
fixed quantizer), decodes it again, and reports:

- bytes per frame (the VBR bandwidth process itself),
- per-slice byte breakdown,
- compression ratio and reconstruction quality (PSNR),
- how bandwidth tracks scene complexity.

Run:  python examples/codec_demo.py [--frames 24] [--quant 16]
"""

import argparse

import numpy as np

from repro.experiments.reporting import format_table
from repro.video.codec import IntraframeCodec
from repro.video.synthetic import SyntheticMovie


def psnr(original, reconstructed):
    mse = float(np.mean((original.astype(float) - reconstructed) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=24, help="frames to code")
    parser.add_argument("--quant", type=float, default=16.0, help="quantizer step size")
    parser.add_argument("--height", type=int, default=120)
    parser.add_argument("--width", type=int, default=128)
    return parser.parse_args()


def main():
    args = parse_args()
    codec = IntraframeCodec(quant_step=args.quant, slices_per_frame=30)
    movie = SyntheticMovie(
        args.frames, height=args.height, width=args.width, seed=42, min_scene_frames=6
    )
    print(f"Coding {args.frames} frames of {args.height}x{args.width} procedural video "
          f"with quantizer step {args.quant} ...\n")

    rows = []
    frame_bytes = []
    quality = []
    for i, frame in enumerate(movie):
        encoded = codec.encode_frame(frame)
        decoded = codec.decode_frame(encoded)
        frame_bytes.append(encoded.total_bytes)
        quality.append(psnr(frame, decoded))
        if i < 8:
            scene = next(s for s in movie.script.scenes if s.start_frame <= i < s.end_frame)
            rows.append([
                i,
                f"{scene.level:.2f}",
                encoded.total_bytes,
                f"{frame.size / max(encoded.total_bytes, 1):.2f}",
                f"{quality[-1]:.1f}",
                f"{encoded.slice_bytes.min()}-{encoded.slice_bytes.max()}",
            ])
    print(format_table(
        ["frame", "scene level", "bytes", "ratio", "PSNR (dB)", "slice bytes (min-max)"],
        rows,
        title="Per-frame coding results (first 8 frames):",
    ))

    frame_bytes = np.asarray(frame_bytes, dtype=float)
    raw = args.height * args.width
    print(
        f"\nWhole run: mean {frame_bytes.mean():.0f} bytes/frame "
        f"(compression {raw / frame_bytes.mean():.2f}:1), "
        f"peak/mean {frame_bytes.max() / frame_bytes.mean():.2f}, "
        f"mean PSNR {np.mean(quality):.1f} dB"
    )
    levels = movie.script.frame_levels()[: frame_bytes.size]
    corr = np.corrcoef(frame_bytes, levels)[0, 1]
    print(f"Correlation between scene complexity and bytes/frame: {corr:.2f}")
    print("\nThis is the mechanism behind the paper's trace: a fixed "
          "quantizer makes the bit rate follow picture complexity, and the "
          "scene structure of a movie makes that complexity long-range "
          "dependent in time.")


if __name__ == "__main__":
    main()
