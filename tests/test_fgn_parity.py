"""Parity pins for the fGn synthesis paths each caller runs.

Two independent checks per path:

- **sha256 pins.**  The digests below are of the float64 bytes each
  call returned at commit cbd0d31, where ``BlockFGNSource``,
  ``qc_curve``/``smg_curve`` (pinned in
  ``tests/test_par_determinism.py``) and ``repro stream`` still took a
  ``batch`` option; every batch size gave these bytes.  They catch any
  change to the synthesized values.
- **Single-trace oracles.**  ``BlockFGNSource`` is rebuilt here from
  the plain ``PaxsonGenerator``/``DaviesHarteGenerator.generate`` call
  per block, stitched with :func:`repro.stream.sources.blend_weights`.
  They say what the bytes are, not only that they did not move.
"""

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.paxson import PaxsonGenerator
from repro.stream.sources import BlockFGNSource, blend_weights

GENERATORS = {"paxson": PaxsonGenerator, "davies-harte": DaviesHarteGenerator}

BLOCK_SHA256 = {
    "paxson": "51fb88e99f99e38994aebdcc940c7b7bd63c4334120e4d746e70beeef4e22ec5",
    "davies-harte": "8377cc9d7d09a25409ce7349a15eae3dcb86233c7a7564e324c06d83c19192a9",
}


def sha256(*arrays):
    """sha256 over the float64 bytes of ``arrays``, in order."""
    digest = hashlib.sha256()
    for values in arrays:
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def stitch(raws, lengths, overlap):
    """Join raw pieces: keep ``length`` samples of each, cross-fading the
    first ``overlap`` of them with the previous piece's surplus tail."""
    w_old, w_new = blend_weights(overlap)
    out, tail = [], None
    for raw, length in zip(raws, lengths):
        head = raw[:length].copy()
        if tail is not None and overlap:
            b = min(overlap, length)
            head[:b] = w_old[:b] * tail[:b] + w_new[:b] * head[:b]
        tail = raw[length:]
        out.append(head)
    return np.concatenate(out)


class TestBlockFGNSource:
    @pytest.mark.parametrize("backend", sorted(BLOCK_SHA256))
    def test_matches_pinned_bytes_and_single_trace_oracle(self, backend):
        source = BlockFGNSource(0.8, block_size=1_024, overlap=64, backend=backend)
        samples = np.concatenate(
            list(source.chunks(5_000, 700, rng=np.random.default_rng(31)))
        )
        assert sha256(samples) == BLOCK_SHA256[backend]
        generator = GENERATORS[backend](0.8)
        rng = np.random.default_rng(31)
        raws = [generator.generate(1_024 + 64, rng=rng) for _ in range(5)]
        np.testing.assert_array_equal(samples, stitch(raws, [1_024] * 5, 64)[:5_000])


class TestStreamCommand:
    def test_npy_bytes(self, tmp_path):
        out = tmp_path / "x.npy"
        assert main(["--quiet", "stream", "--samples", "200000",
                     "--backend", "paxson", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6686977b6527ce406f35115dc0cdd647a779374e3e4930dcd47e1bbcf57fe0f4"
        )
