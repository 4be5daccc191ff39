"""Tier-1 bit-identity wall for the batched fGn synthesis layer.

``batch_generate`` stacks B Hermitian spectra into one 2-D inverse FFT;
pocketfft runs each row with the same 1-D plan a single-trace call
would use, so every row must equal the corresponding
``PaxsonGenerator``/``DaviesHarteGenerator`` sample **bit for bit** --
not approximately.  These tests pin that per backend, Hurst value,
batch size and odd/even length, then show that the streaming block
source, which synthesizes one trace at a time, would emit the same
bytes with its traces stacked B rows per FFT.
"""

import numpy as np
import pytest

from repro.core.batch import batch_generate
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.paxson import PaxsonGenerator
from repro.stream.sources import make_source
from tests.test_fgn_parity import stitch

BACKENDS = {"paxson": PaxsonGenerator, "davies-harte": DaviesHarteGenerator}
HURSTS = (0.5, 0.7, 0.9)
BATCHES = (1, 2, 7)


def _row_rngs(seeds):
    """One rng per row, built the way ``alloc.fleet`` builds them."""
    return [np.random.Generator(np.random.PCG64(s)) for s in seeds]


class TestRowBitIdentity:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("hurst", HURSTS)
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("n", (256, 257))  # even and odd lengths
    def test_rows_match_single_trace_calls(self, backend, hurst, batch, n):
        row_seeds = [11_000 + i for i in range(batch)]
        rows = batch_generate(BACKENDS[backend](hurst), n, _row_rngs(row_seeds))
        assert rows.shape == (batch, n)
        generator = BACKENDS[backend](hurst)
        for i, row_seed in enumerate(row_seeds):
            reference = generator.generate(n, rng=np.random.default_rng(row_seed))
            np.testing.assert_array_equal(rows[i], reference)

    def test_explicit_seeds_override_derivation(self):
        seeds = [301, 17, 301]  # repeats allowed: rows 0 and 2 coincide
        rows = batch_generate(PaxsonGenerator(0.8), 500, _row_rngs(seeds))
        np.testing.assert_array_equal(rows[0], rows[2])
        assert not np.array_equal(rows[0], rows[1])
        single = PaxsonGenerator(0.8).generate(500, rng=np.random.default_rng(17))
        np.testing.assert_array_equal(rows[1], single)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_shared_rng_mode_matches_sequential_calls(self, backend):
        generator = BACKENDS[backend](0.7)
        shared = np.random.default_rng(42)
        rows = batch_generate(generator, 300, [shared] * 4)
        rng = np.random.default_rng(42)
        for i in range(4):
            np.testing.assert_array_equal(rows[i], generator.generate(300, rng=rng))

    def test_n_equals_one(self):
        rows = batch_generate(PaxsonGenerator(0.8), 1, _row_rngs([5, 6, 7]))
        assert rows.shape == (3, 1)
        for i, row_seed in enumerate([5, 6, 7]):
            reference = PaxsonGenerator(0.8).generate(
                1, rng=np.random.default_rng(row_seed)
            )
            np.testing.assert_array_equal(rows[i], reference)

    def test_batch_generate_reuses_a_live_generator(self):
        generator = DaviesHarteGenerator(0.8)
        rngs = [np.random.default_rng(s) for s in (3, 9)]
        rows = batch_generate(generator, 200, rngs)
        for i, seed in enumerate((3, 9)):
            np.testing.assert_array_equal(
                rows[i], generator.generate(200, rng=np.random.default_rng(seed))
            )


class TestValidation:
    def test_batch_generate_rejects_foreign_generators(self):
        with pytest.raises(TypeError, match="PaxsonGenerator"):
            batch_generate(object(), 128, [np.random.default_rng(0)])

    def test_batch_generate_requires_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            batch_generate(PaxsonGenerator(0.8), 128, [])


class TestStreamingSourceBatch:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_block_source_emits_identical_samples(self, backend, batch):
        # Blocks drawn B per stacked FFT from the stream's one rng, in order.
        source = make_source(backend, hurst=0.8, block_size=1_024, overlap=64)
        samples = np.concatenate(
            list(source.chunks(5_000, 700, rng=np.random.default_rng(31)))
        )
        generator, rng = BACKENDS[backend](0.8), np.random.default_rng(31)
        raws = []
        while len(raws) < 5:
            raws.extend(batch_generate(generator, 1_024 + 64, [rng] * batch))
        np.testing.assert_array_equal(
            samples, stitch(raws, [1_024] * len(raws), 64)[:5_000]
        )
