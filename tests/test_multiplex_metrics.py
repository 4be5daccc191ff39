"""Tests for multiplexing and loss metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.metrics import windowed_loss_rate, worst_errored_second_loss
from repro.simulation.multiplex import multiplex_series, random_lags


class TestRandomLags:
    def test_single_source(self, rng):
        np.testing.assert_array_equal(random_lags(1, 1000, rng=rng), [0])

    def test_first_lag_zero(self, rng):
        lags = random_lags(5, 100_000, rng=rng)
        assert lags[0] == 0

    def test_separation_respected(self, rng):
        for _ in range(20):
            lags = random_lags(10, 30_000, min_separation=1000, rng=rng)
            ordered = np.sort(lags)
            gaps = np.diff(np.concatenate((ordered, [ordered[0] + 30_000])))
            assert gaps.min() >= 1000

    def test_tight_packing_succeeds(self, rng):
        """20 sources, 1000 apart, in a 21,000-frame circle: nearly
        fully packed; the constructive sampler must still succeed."""
        lags = random_lags(20, 21_000, min_separation=1000, rng=rng)
        ordered = np.sort(lags)
        gaps = np.diff(np.concatenate((ordered, [ordered[0] + 21_000])))
        assert gaps.min() >= 1000

    def test_infeasible_raises(self, rng):
        with pytest.raises(ValueError):
            random_lags(10, 5_000, min_separation=1000, rng=rng)

    def test_lags_within_range(self, rng):
        lags = random_lags(7, 50_000, rng=rng)
        assert np.all((lags >= 0) & (lags < 50_000))

    def test_randomness(self):
        a = random_lags(5, 100_000, rng=np.random.default_rng(1))
        b = random_lags(5, 100_000, rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)


class TestMultiplexSeries:
    def test_sum_preserved(self, rng):
        x = rng.uniform(size=1000)
        agg = multiplex_series(x, [0, 100, 555])
        assert agg.sum() == pytest.approx(3 * x.sum())

    def test_zero_lags_triple(self, rng):
        x = rng.uniform(size=100)
        np.testing.assert_allclose(multiplex_series(x, [0, 0, 0]), 3 * x)

    def test_shifted_copies(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        agg = multiplex_series(x, [0, 1])
        np.testing.assert_allclose(agg, x + np.roll(x, -1))

    def test_mean_scales_with_n(self, small_series, rng):
        lags = random_lags(5, small_series.size, rng=rng)
        agg = multiplex_series(small_series, lags)
        assert agg.mean() == pytest.approx(5 * small_series.mean())

    def test_smoothing_effect(self, small_series, rng):
        """Multiplexing reduces the aggregate CoV (the SMG mechanism)."""
        lags = random_lags(10, small_series.size, rng=rng)
        agg = multiplex_series(small_series, lags)
        cov_agg = agg.std() / agg.mean()
        cov_one = small_series.std() / small_series.mean()
        assert cov_agg < 0.6 * cov_one

    def test_rejects_empty_lags(self, rng):
        with pytest.raises(ValueError):
            multiplex_series(rng.uniform(size=10), [])

    def test_equals_the_roll_loop_bit_for_bit(self, rng):
        """The in-place wrapped-slice adds are the ``np.roll`` sum exactly."""
        for _ in range(100):
            n = int(rng.integers(1, 2_000))
            x = rng.gamma(0.8, 1_000.0, size=n)
            lags = rng.integers(-3 * n, 3 * n, size=int(rng.integers(1, 20)))
            want = np.zeros(n)
            for lag in lags:
                want += np.roll(x, -int(lag) % n)
            assert multiplex_series(x, lags).tobytes() == want.tobytes()


class TestWorstErroredSecond:
    def test_basic(self):
        loss = np.array([0.0, 0.0, 5.0, 0.0])
        arr = np.array([10.0, 10.0, 10.0, 10.0])
        # 2 slots per "second": seconds have loss 0 and 5, offered 20.
        assert worst_errored_second_loss(loss, arr, 2) == pytest.approx(0.25)

    def test_zero_when_no_loss(self, rng):
        arr = rng.uniform(1, 2, size=100)
        assert worst_errored_second_loss(np.zeros(100), arr, 10) == 0.0

    def test_skips_empty_seconds(self):
        loss = np.array([0.0, 0.0, 1.0, 1.0])
        arr = np.array([0.0, 0.0, 4.0, 4.0])
        assert worst_errored_second_loss(loss, arr, 2) == pytest.approx(0.25)

    def test_partial_second_dropped(self):
        loss = np.array([0.0, 0.0, 99.0])
        arr = np.array([1.0, 1.0, 99.0])
        assert worst_errored_second_loss(loss, arr, 2) == 0.0

    def test_wes_at_least_overall(self, rng):
        """The worst second is never better than the average."""
        loss = rng.uniform(0, 1, size=1000) * (rng.uniform(size=1000) < 0.1)
        arr = rng.uniform(5, 10, size=1000)
        wes = worst_errored_second_loss(loss, arr, 24)
        overall = loss.sum() / arr.sum()
        assert wes >= overall

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            worst_errored_second_loss([1.0], [1.0, 2.0], 1)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            worst_errored_second_loss([1.0], [1.0], 2)


class TestWindowedLoss:
    def test_matches_direct_windows(self, rng):
        loss = rng.uniform(0, 1, size=50)
        arr = rng.uniform(1, 2, size=50)
        centers, rates = windowed_loss_rate(loss, arr, 10)
        assert rates.size == 41
        assert rates[0] == pytest.approx(loss[:10].sum() / arr[:10].sum())
        assert rates[-1] == pytest.approx(loss[-10:].sum() / arr[-10:].sum())

    def test_zero_offered_windows(self):
        loss = np.zeros(5)
        arr = np.zeros(5)
        _, rates = windowed_loss_rate(loss, arr, 2)
        np.testing.assert_array_equal(rates, 0.0)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            windowed_loss_rate([0.0], [1.0], 2)


@settings(max_examples=25, deadline=None)
@given(
    n_sources=st.integers(2, 15),
    seed=st.integers(0, 1000),
)
def test_multiplex_conservation_property(n_sources, seed):
    """Property: aggregate traffic conserves total bytes exactly."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=2_000)
    lags = random_lags(n_sources, x.size, min_separation=10, rng=rng)
    agg = multiplex_series(x, lags)
    assert agg.sum() == pytest.approx(n_sources * x.sum(), rel=1e-12)
