"""Golden-stats digests for every experiment module.

Each ``fig*``/``table*`` experiment runs on the shared 20,000-frame
reference trace (with reduced simulation workloads) and its result is
summarized into ``tests/golden/<name>.json``.  The tests certify that
a refactor leaves every experiment's statistics bit-stable without
re-deriving a single plot; after an *intended* change, regenerate with
``pytest --update-golden`` and review the digest diff like code.
"""

import pkgutil

import pytest

import repro.experiments
from repro.experiments import (
    fig01_timeseries,
    fig02_lowfreq,
    fig03_segments,
    fig04_ccdf,
    fig05_lefttail,
    fig06_density,
    fig07_acf,
    fig08_periodogram,
    fig09_confidence,
    fig10_selfsimilar,
    fig11_variance_time,
    fig12_pox,
    fig13_system,
    fig14_qc,
    fig15_smg,
    fig16_model_vs_trace,
    fig17_loss_process,
    fig_alloc_compare,
    fig_alloc_smg,
    fig_net_hurst_hops,
    fig_net_tandem,
    table1,
    table2,
    table3,
)

# name -> callable(trace).  Simulation figures get reduced workloads
# (8,000 frames, fewer curve points) so the golden gate stays fast;
# analysis figures run at their defaults on the 20,000-frame trace.
EXPERIMENTS = {
    "table1": lambda t: table1.run(t),
    "table2": lambda t: table2.run(t),
    "table3": lambda t: table3.run(t),
    "fig01_timeseries": lambda t: fig01_timeseries.run(t),
    "fig02_lowfreq": lambda t: fig02_lowfreq.run(t),
    "fig03_segments": lambda t: fig03_segments.run(t),
    "fig04_ccdf": lambda t: fig04_ccdf.run(t),
    "fig05_lefttail": lambda t: fig05_lefttail.run(t),
    "fig06_density": lambda t: fig06_density.run(t),
    "fig07_acf": lambda t: fig07_acf.run(t),
    "fig08_periodogram": lambda t: fig08_periodogram.run(t),
    "fig09_confidence": lambda t: fig09_confidence.run(t),
    "fig10_selfsimilar": lambda t: fig10_selfsimilar.run(t),
    "fig11_variance_time": lambda t: fig11_variance_time.run(t),
    "fig12_pox": lambda t: fig12_pox.run(t),
    "fig13_system": lambda t: fig13_system.run(t, n_frames=8_000),
    "fig14_qc": lambda t: fig14_qc.run(
        t,
        n_sources=(1, 5),
        specs=(("overall", 0.0), ("overall", 1e-3)),
        n_frames=8_000,
        n_points=6,
    ),
    "fig15_smg": lambda t: fig15_smg.run(
        t, n_values=(1, 2, 5), loss_targets=(0.0, 1e-3), n_frames=8_000
    ),
    "fig16_model_vs_trace": lambda t: fig16_model_vs_trace.run(
        t, n_sources=(1, 5), n_frames=8_000, n_buffers=6
    ),
    "fig17_loss_process": lambda t: fig17_loss_process.run(t, n_frames=8_000),
    "fig_net_tandem": lambda t: fig_net_tandem.run(t, n_frames=3_000, n_points=4),
    "fig_net_hurst_hops": lambda t: fig_net_hurst_hops.run(t, n_frames=6_000),
    "fig_alloc_compare": lambda t: fig_alloc_compare.run(
        t, n_users=24, epoch_slots=80, n_epochs=16
    ),
    "fig_alloc_smg": lambda t: fig_alloc_smg.run(
        t, n_users=8, epoch_lengths=(30, 60), total_slots=600
    ),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_matches_golden(name, small_trace, golden):
    golden.check(name, EXPERIMENTS[name](small_trace))


@pytest.mark.parametrize("name", ["fig14_qc", "fig17_loss_process", "fig_alloc_smg"])
def test_python_fold_fallback_matches_golden(name, small_trace, golden, monkeypatch):
    """With the compiled kernel gone, ``run_slots`` folds in Python: same digests."""
    from repro.simulation import slotfluid

    monkeypatch.setattr(slotfluid._KERNEL, "fold", False)
    golden.check(name, EXPERIMENTS[name](small_trace))


def test_every_experiment_module_has_a_digest():
    """New fig*/table* modules must register a golden digest here."""
    modules = {
        m.name
        for m in pkgutil.iter_modules(repro.experiments.__path__)
        if m.name.startswith(("fig", "table"))
    }
    assert modules == set(EXPERIMENTS), (
        "experiment modules and golden digests disagree; add the new "
        "module to EXPERIMENTS and run pytest --update-golden"
    )


def test_digest_files_exist_and_current():
    """Every digest ships in the repo at the current schema version."""
    from repro.qa.golden import DIGEST_VERSION, GoldenStore
    from pathlib import Path

    store = GoldenStore(Path(__file__).parent / "golden")
    missing = [n for n in EXPERIMENTS if not store.path(n).exists()]
    assert not missing, f"missing golden digests: {missing}; run pytest --update-golden"
    for name in EXPERIMENTS:
        store.load(name)  # raises on schema-version drift
