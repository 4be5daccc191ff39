"""Parity pins for the fGn synthesis paths each caller runs.

Two independent checks per path:

- **sha256 pins.**  The digests below are of the float64 bytes each
  call returned at commit cbd0d31, where ``shard_fgn``,
  ``multiplex_fgn``, ``BlockFGNSource``, ``qc_curve``/``smg_curve``
  (pinned in ``tests/test_par_determinism.py``) and ``repro stream``
  still took a ``batch`` option; every batch size gave these bytes.
  They catch any change to the synthesized values.
- **Single-trace oracles.**  ``shard_fgn`` and ``BlockFGNSource`` are
  rebuilt here from the plain ``PaxsonGenerator``/
  ``DaviesHarteGenerator.generate`` call per shard or block, stitched
  with :func:`repro.stream.sources.blend_weights`.  They say what the
  bytes are, not only that they did not move.
"""

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.paxson import PaxsonGenerator
from repro.par.pool import derive_task_seed
from repro.par.shard import shard_fgn, shard_plan
from repro.simulation.multiplex import multiplex_fgn
from repro.stream.sources import BlockFGNSource, blend_weights

GENERATORS = {"paxson": PaxsonGenerator, "davies-harte": DaviesHarteGenerator}

SHARD_SHA256 = {
    ("paxson", 10_001): "e232cd1cb832923afa3ebab13496e5c0b439f3cf7933942874bbb7f7cf98adad",
    ("paxson", 9_050): "f8718f7608e9b011f9afe73ef09275251b7249de2620e76dd16837c9167c3ea3",
    ("davies-harte", 10_001): "0c5f401920d1c0aacccd396383cce4255b0580741301c9278a2a3b641f053d18",
    ("davies-harte", 9_050): "cd2e915f0e811dc0aff88e3979e32b79ee6d93182430644cae63792024edece4",
}
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


def shard_seeds(seed, n_shards):
    """The per-shard seeds ``shard_fgn`` derives through its pool."""
    return [derive_task_seed(seed, i, label="shard") for i in range(n_shards)]


class TestShardFGN:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("backend,n", sorted(SHARD_SHA256))
    def test_matches_pinned_bytes_and_single_trace_oracle(self, backend, n, workers):
        # 10,001 ends in a short shard; 9,050 in one shorter than the overlap.
        path = shard_fgn(n, 0.8, backend=backend, seed=5, shard_size=3000,
                         overlap=100, workers=workers)
        assert sha256(path) == SHARD_SHA256[backend, n]
        plan = shard_plan(n, 3000)
        raws = [
            GENERATORS[backend](0.8).generate(length + 100, rng=np.random.default_rng(s))
            for (_, length), s in zip(plan, shard_seeds(5, len(plan)))
        ]
        np.testing.assert_array_equal(
            path, stitch(raws, [length for _, length in plan], 100)
        )

    def test_two_million_samples_at_the_default_shard_size(self):
        path = shard_fgn(2_000_000, 0.8, seed=3)
        assert sha256(path) == (
            "f0a69e0f7c79e23cc91cb05f7342dc4d6b69ce1d1261ac5cdd8b14ea9feb160f"
        )

    def test_hosking_path(self):
        assert sha256(shard_fgn(2_000, 0.8, backend="hosking", seed=9)) == (
            "ba8b9cb14084dc5f1dc17f1b37ebc23d4eb55ed84623917bfb03294a7aa3cbc2"
        )


class TestMultiplexFGN:
    def test_gaussian_aggregate(self):
        assert sha256(multiplex_fgn(600, 0.8, 5, seed=3)) == (
            "435502b399263efa61ed17bba5e4662364c839f83fad48a47306ee1d7dc860e3"
        )

    def test_paper_marginal_aggregate(self, paper_marginal):
        assert sha256(multiplex_fgn(400, 0.8, 4, seed=8, marginal=paper_marginal)) == (
            "9293f170f83956a759dc4397262d1f5da584cc0d55b61612a0bd001ce0bfc9b5"
        )


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
