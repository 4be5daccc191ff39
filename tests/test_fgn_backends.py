"""Every entry point that takes an fGn backend name resolves it through
:mod:`repro.core.fgn`.

For each name in the table, each entry point must give the same first
samples as the table's generator under the same rng or seed
derivation, and an unknown name must get the same one-line message
from every one of them.
"""

import numpy as np
import pytest

from repro.core.baselines import GaussianFarimaModel
from repro.core.batch import batch_generate
from repro.core.fgn import FGN_BACKENDS, blend_weights, fgn_backend, fgn_generator
from repro.core.model import VBRVideoModel
from repro.dist import TaskSpec, execute_task, fgn_tasks
from repro.net.topology import build_network
from repro.stream.sources import BlockFGNSource, make_source

NAMES = sorted(FGN_BACKENDS)
H, N, BLOCK, OVERLAP, SEED = 0.8, 300, 256, 16, 11


def path(name, n, seed):
    """``n`` samples of the table's generator under ``default_rng(seed)``."""
    return FGN_BACKENDS[name].cls(H).generate(n, rng=np.random.default_rng(seed))


def first_block(name, seed):
    """The first ``BLOCK`` samples a blocked caller emits: the head of one
    raw block, or the plain path for a backend that is not blockwise."""
    if FGN_BACKENDS[name].blockwise:
        return path(name, BLOCK + OVERLAP, seed)[:BLOCK]
    return path(name, BLOCK, seed)


def net_spec(name):
    """One flow of raw fGn (mean 0, std 1, clipped at zero) over one hop."""
    return {
        "slots": N,
        "nodes": [{"name": "a"}, {"name": "b"}],
        "links": [{"src": "a", "dst": "b", "capacity_per_slot": 1.0}],
        "flows": [{
            "name": "f", "path": ["a", "b"],
            "source": {"kind": "fgn", "backend": name, "hurst": H, "seed": SEED,
                       "block_size": BLOCK, "overlap": OVERLAP,
                       "marginal": {"mean": 0.0, "std": 1.0}},
        }],
    }


def test_table_rows():
    assert NAMES == ["davies-harte", "hosking", "paxson"]
    assert [n for n in NAMES if FGN_BACKENDS[n].exact] == ["davies-harte", "hosking"]
    assert [n for n in NAMES if FGN_BACKENDS[n].blockwise] == ["davies-harte", "paxson"]


def test_blend_weights_preserve_variance():
    w_old, w_new = blend_weights(64)
    np.testing.assert_allclose(w_old**2 + w_new**2, 1.0, rtol=1e-12)


@pytest.mark.parametrize("name", NAMES)
class TestSameSamplesAsTheTable:
    def test_model(self, name):
        model = VBRVideoModel(27_791.0, 6_254.0, 12.0, H)
        got = model.generate_gaussian(N, rng=np.random.default_rng(SEED), generator=name)
        np.testing.assert_array_equal(got, path(name, N, SEED))

    def test_batch_fgn(self, name):
        # Stacked synthesis runs on a blockwise generator from the table.
        if not FGN_BACKENDS[name].blockwise:
            with pytest.raises(ValueError, match="is not blockwise"):
                fgn_generator(name, H, blockwise=True)
            return
        seeds = (SEED, SEED + 1)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        rows = batch_generate(fgn_generator(name, H, blockwise=True), N, rngs)
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(row, path(name, N, seed))

    def test_make_source(self, name):
        source = make_source(name, hurst=H, block_size=BLOCK, overlap=OVERLAP)
        got = np.concatenate(list(source.chunks(N, 100, rng=np.random.default_rng(SEED))))
        np.testing.assert_array_equal(got[:BLOCK], first_block(name, SEED))

    def test_fgn_task(self, name):
        task = TaskSpec("f", "fgn", {"n": N, "hurst": H, "backend": name})
        np.testing.assert_array_equal(execute_task(task, seed=SEED), path(name, N, SEED))

    def test_net_spec_fgn_source(self, name):
        got = build_network(net_spec(name)).flows["f"].emissions(N)
        np.testing.assert_array_equal(got[:BLOCK], np.maximum(first_block(name, SEED), 0.0))


UNKNOWN = "daviesharte"
ENTRY_POINTS = {
    "VBRVideoModel": lambda name: VBRVideoModel(1.0, 1.0, 12.0, H).generate_gaussian(
        8, generator=name),
    "GaussianFarimaModel": lambda name: GaussianFarimaModel(1.0, 1.0, H, generator=name),
    "batch_fgn": lambda name: fgn_generator(name, H, blockwise=True),
    "make_source": lambda name: make_source(name),
    "BlockFGNSource": lambda name: BlockFGNSource(H, backend=name),
    "fgn task": lambda name: execute_task(TaskSpec("f", "fgn", {"n": 8, "backend": name}), 0),
    "fgn_tasks": lambda name: fgn_tasks(1, 8, backend=name),
    "net spec": lambda name: build_network(net_spec(name)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_name_gets_one_message_everywhere(entry):
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[entry](UNKNOWN)
    assert str(info.value) == (
        "unknown fGn backend 'daviesharte'; expected hosking, davies-harte or paxson"
    )


@pytest.mark.parametrize("need,name,message", [
    ("exact", "paxson", "fGn backend 'paxson' is not exact; expected hosking or davies-harte"),
    ("blockwise", "hosking",
     "fGn backend 'hosking' is not blockwise; expected davies-harte or paxson"),
])
def test_missing_property_names_the_backends_that_have_it(need, name, message):
    with pytest.raises(ValueError) as info:
        fgn_backend(name, **{need: True})
    assert str(info.value) == message
