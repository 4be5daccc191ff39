"""One arrival set per fleet: synthesis counts and shared-set safety.

A fleet's arrivals depend only on ``(users, epoch_slots, n_epochs,
seed)``.  The experiments that run one fleet many times (a capacity
bisection, an allocator comparison) build the set once with
:func:`repro.alloc.fleet.fleet_arrivals` and pass it to every
:func:`simulate_fleet` run.  These tests count the per-epoch
syntheses, check that a passed set gives the same bits as the lazy
path, and check that a shared set can be neither misfit nor written.
"""

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.alloc import ALLOCATORS, demo_fleet, fleet_arrivals, simulate_fleet
from repro.alloc import fleet as fleet_module
from repro.experiments import fig_alloc_compare, fig_alloc_smg


@pytest.fixture
def synthesis_count(monkeypatch):
    """Counts calls to the per-epoch arrival synthesis."""
    calls = []
    real = fleet_module._epoch_arrivals

    def counting(spec, epoch_index, video):
        calls.append((spec.epoch_slots, epoch_index))
        return real(spec, epoch_index, video)

    monkeypatch.setattr(fleet_module, "_epoch_arrivals", counting)
    return calls


@pytest.fixture(scope="module")
def fleet():
    return demo_fleet(12, epoch_slots=40, n_epochs=6, utilization=0.7, seed=5)


class TestSynthesisCounts:
    def test_smg_full_scale_synthesizes_each_epoch_once(self, synthesis_count):
        fig_alloc_smg.run()
        assert len(synthesis_count) == 80 + 40 + 20
        assert len(set(synthesis_count)) == len(synthesis_count)

    def test_smg_quick_scale(self, synthesis_count):
        fig_alloc_smg.run(n_users=8, total_slots=900)
        assert len(synthesis_count) == 30 + 15 + 7

    @pytest.mark.parametrize("n_users,n_epochs,epoch_slots",
                             [(24, 16, 80), (48, 40, 100)])
    def test_compare_synthesizes_once_for_every_allocator(
            self, synthesis_count, n_users, n_epochs, epoch_slots):
        fig_alloc_compare.run(n_users=n_users, n_epochs=n_epochs, epoch_slots=epoch_slots)
        assert len(synthesis_count) == n_epochs


class TestSharedSet:
    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_passed_set_gives_the_same_digest(self, fleet, name):
        arrivals = fleet_arrivals(fleet)
        lazy = simulate_fleet(fleet, name).digest()
        shared = simulate_fleet(fleet, name, arrivals=arrivals)
        assert shared.digest() == lazy, name

    def test_set_matches_the_lazy_epochs(self, fleet):
        arrivals = fleet_arrivals(fleet)
        assert len(arrivals) == fleet.n_epochs
        for shared, lazy in zip(arrivals, fleet_module._arrival_epochs(fleet)):
            assert shared.shape == (fleet.n_users, fleet.epoch_slots)
            assert np.array_equal(shared, lazy)

    def test_shared_matrices_are_read_only(self, fleet):
        arrivals = fleet_arrivals(fleet)
        with pytest.raises(ValueError, match="read-only"):
            arrivals[0][0, 0] = 1.0

    @pytest.mark.parametrize("misfit", ["too_few", "too_many", "wrong_shape"])
    def test_misfit_set_raises_one_line(self, fleet, misfit):
        arrivals = list(fleet_arrivals(fleet))
        if misfit == "too_few":
            arrivals.pop()
        elif misfit == "too_many":
            arrivals.append(arrivals[0])
        else:
            arrivals[2] = arrivals[2][:, :-1]
        with pytest.raises(ValueError, match="arrivals must be") as exc:
            simulate_fleet(fleet, "static", arrivals=arrivals)
        assert "\n" not in str(exc.value)


def test_no_private_fleet_imports_outside_alloc():
    """Only ``repro.alloc`` reaches into the fleet module's private names."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in root.rglob("*.py"):
        if path.parent.name == "alloc":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module == "repro.alloc.fleet"
                    and any(a.name.startswith("_") for a in node.names)):
                offenders.append(str(path.relative_to(root)))
    assert offenders == []
