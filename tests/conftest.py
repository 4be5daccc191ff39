"""Shared fixtures for the test suite.

Expensive artifacts (the mid-size reference trace, long generator
paths) are session-scoped so the suite stays fast while still
exercising realistic sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions.hybrid import GammaParetoHybrid
from repro.experiments.data import reference_trace

# Tier markers, seeded_rng/golden fixtures, --qa-seed / --update-golden.
pytest_plugins = ("repro.qa.plugin",)


@pytest.fixture
def rng():
    """Fresh deterministic generator for each test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def paper_marginal():
    """Hybrid Gamma/Pareto with the paper's Table 2 frame parameters."""
    return GammaParetoHybrid(27_791.0, 6_254.0, 12.0)


@pytest.fixture(scope="session")
def small_trace():
    """A 20,000-frame calibrated trace shared across the session."""
    return reference_trace(n_frames=20_000, seed=7)


@pytest.fixture(scope="session")
def quick_campaign():
    """``run_all(quick=True)``: every experiment on the 40,000-frame trace."""
    from repro.experiments.runner import run_all

    return run_all(quick=True)


@pytest.fixture(scope="session")
def small_series(small_trace):
    """Frame-level byte series of the shared trace."""
    return small_trace.frame_bytes


@pytest.fixture(scope="session")
def fgn_path():
    """A long FGN path with H = 0.8 for estimator tests."""
    from repro.core.daviesharte import DaviesHarteGenerator

    return DaviesHarteGenerator(0.8).generate(2**15, rng=np.random.default_rng(99))
