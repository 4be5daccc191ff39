"""Tier-2 seeded fuzz for the batched-synthesis path and the queue fold.

The stacked 2-D FFT synthesis (:func:`repro.core.batch.batch_fgn`) is
pinned bit-for-bit by tier 1; this module attacks the *rest* of the
input space with randomized configurations drawn from the rotating
``--qa-seed``:

- random ``(H, n, batch, capacity, buffer)`` queue workloads cut at
  random chunk boundaries, where the slot-fluid fold
  (:func:`repro.simulation.slotfluid.run_slots`) resumed from its
  carried state must equal one whole-series fold and the Python
  oracle (:func:`repro.simulation.slotfluid.fold_slots`) exactly;
- cross-backend equivalence of *batched* output, mirroring
  ``tests/test_qa_backends.py``: ACF, periodogram slope, and
  variance-time Hurst agreement between stacked Paxson and stacked
  Davies-Harte rows, drawing from the suite-wide alpha budget.

Every draw flows from ``seeded_rng``, so these must pass for any seed.
"""

import numpy as np
import pytest

from repro.analysis.hurst import variance_time
from repro.core.batch import batch_fgn
from repro.qa import stats as qa
from repro.simulation.slotfluid import fold_slots, run_slots
from tests.qa_budget import CHECK_ALPHA

HURSTS = (0.6, 0.8, 0.9)
N_SAMPLES = 4096
N_PATHS = 6

pytestmark = [pytest.mark.tier2, pytest.mark.statistical_retry]


def _random_workload(rng):
    """One random queue configuration: LRD arrivals plus (c, Q)."""
    hurst = float(rng.uniform(0.55, 0.95))
    n = int(rng.integers(5_000, 60_000))
    batch = int(rng.integers(1, 9))
    # Positive arrivals with the drawn H: exponentiate the Gaussian so
    # heavy slots stress the overflow barrier, then scale to bytes.
    row = batch_fgn(n, hurst, batch, seed=int(rng.integers(2**31)))[batch - 1]
    arrivals = 10_000.0 * np.exp(0.5 * row)
    mean = float(arrivals.mean())
    capacity = mean * float(rng.uniform(0.9, 1.6))
    buffer_bytes = mean * float(rng.uniform(0.0, 30.0))
    return arrivals, capacity, buffer_bytes


class TestQueueKernelFuzz:
    def test_random_chunk_boundaries_resume_exactly(self, seeded_rng):
        a, c, q = _random_workload(seeded_rng)
        whole = run_slots(a, c, q)
        np.testing.assert_array_equal(whole, fold_slots(a.tolist(), c, q))
        cuts = np.sort(seeded_rng.integers(1, a.size, size=4))
        state = (0.0, 0.0, 0.0, 0.0)
        for start, end in zip(np.r_[0, cuts], np.r_[cuts, a.size]):
            state = run_slots(a[start:end], c, q, state=state)
        np.testing.assert_array_equal(state, whole)


def _batched_paths(backend, hurst, rng, n=N_SAMPLES, n_paths=N_PATHS):
    """N_PATHS independent rows synthesized through the stacked kernel."""
    rows = batch_fgn(n, hurst, n_paths, backend=backend, rng=rng)
    return list(rows)


class TestBatchedBackendEquivalence:
    """Mirrors tests/test_qa_backends.py with the batched entry point."""

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_acf_agreement(self, seeded_rng, hurst):
        exact = _batched_paths("davies-harte", hurst, seeded_rng)
        approx = _batched_paths("paxson", hurst, seeded_rng)
        qa.require(
            qa.acf_agreement_check(
                exact,
                approx,
                max_lag=10,
                alpha=CHECK_ALPHA,
                name=f"batched ACF davies-harte vs paxson (H={hurst})",
            )
        )

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_gph_agreement(self, seeded_rng, hurst):
        exact = _batched_paths("davies-harte", hurst, seeded_rng)
        approx = _batched_paths("paxson", hurst, seeded_rng)
        qa.require(
            qa.gph_agreement_check(
                exact,
                approx,
                alpha=CHECK_ALPHA,
                name=f"batched periodogram slope davies-harte vs paxson (H={hurst})",
            )
        )

    @pytest.mark.parametrize("hurst", HURSTS)
    def test_variance_time_agreement(self, seeded_rng, hurst):
        exact = [
            variance_time(p).hurst
            for p in _batched_paths("davies-harte", hurst, seeded_rng)
        ]
        approx = [
            variance_time(p).hurst
            for p in _batched_paths("paxson", hurst, seeded_rng)
        ]
        qa.require(
            qa.mc_agreement_check(
                exact,
                approx,
                alpha=CHECK_ALPHA,
                name=f"batched variance-time Hurst davies-harte vs paxson (H={hurst})",
            )
        )
