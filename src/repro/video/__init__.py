"""VBR video substrate: codec, procedural movies and trace synthesis.

The paper's dataset was produced by coding the movie "Star Wars" with a
simple intraframe compression code (8x8 DCT, uniform quantization,
run-length and Huffman coding -- essentially JPEG) and recording the
bytes emitted per frame and per slice.  This package rebuilds that
entire pipeline:

- :mod:`repro.video.dct`, :mod:`~repro.video.quantize`,
  :mod:`~repro.video.zigzag`, :mod:`~repro.video.rle`,
  :mod:`~repro.video.huffman`, :mod:`~repro.video.codec` -- the codec,
  implemented from scratch and exercised end-to-end;
- :mod:`repro.video.synthetic` -- a procedural movie generator (scene
  scripts rendered to luminance frames) to feed the codec, since the
  original film is proprietary;
- :mod:`repro.video.starwars` -- a calibrated scene-level synthesizer
  that produces a full two-hour, 171,000-frame bandwidth trace with the
  paper's Table 1/2 statistics, heavy-tailed marginals and H ~= 0.8;
- :mod:`repro.video.trace` / :mod:`~repro.video.tracefile` -- the trace
  container and the Bellcore-style one-integer-per-line file format.
"""

from repro.video.trace import VBRTrace
from repro.video.codec import IntraframeCodec, EncodedFrame
from repro.video.synthetic import SyntheticMovie
from repro.video.scenes import SceneScript, Scene, generate_scene_script, story_arc
from repro.video.starwars import synthesize_starwars_trace, STARWARS_PARAMETERS
from repro.video.tracefile import save_trace, load_trace
from repro.video.interframe import synthesize_mpeg_trace

__all__ = [
    "synthesize_mpeg_trace",
    "VBRTrace",
    "IntraframeCodec",
    "EncodedFrame",
    "SyntheticMovie",
    "SceneScript",
    "Scene",
    "generate_scene_script",
    "story_arc",
    "synthesize_starwars_trace",
    "STARWARS_PARAMETERS",
    "save_trace",
    "load_trace",
]
