"""Tests for goodness-of-fit utilities."""

import numpy as np
import pytest

from repro.distributions import Gamma, Normal, ks_statistic, qq_points, score_candidates
from repro.distributions.gof import chi_square_statistic


class TestKS:
    def test_zero_for_own_quantiles(self):
        d = Normal(0.0, 1.0)
        sample = d.ppf((np.arange(1, 1001) - 0.5) / 1000)
        assert ks_statistic(sample, d) < 0.002

    def test_detects_wrong_model(self, rng):
        data = rng.normal(0.0, 1.0, size=5_000)
        good = ks_statistic(data, Normal(0.0, 1.0))
        bad = ks_statistic(data, Normal(1.0, 1.0))
        assert bad > 5 * good

    def test_bounded(self, rng):
        data = rng.uniform(size=100)
        assert 0.0 <= ks_statistic(data, Normal(0.0, 1.0)) <= 1.0


class TestChiSquare:
    def test_near_one_for_correct_model(self, rng):
        d = Gamma.from_moments(100.0, 20.0)
        data = d.sample(50_000, rng=rng)
        assert chi_square_statistic(data, d) < 2.5

    def test_large_for_wrong_model(self, rng):
        data = rng.normal(100.0, 20.0, size=20_000)
        wrong = Gamma.from_moments(150.0, 10.0)
        assert chi_square_statistic(data, wrong) > 10.0


class TestQQ:
    def test_identity_for_correct_model(self, rng):
        d = Normal(5.0, 2.0)
        data = d.sample(100_000, rng=rng)
        model_q, sample_q = qq_points(data, d, n_points=50)
        np.testing.assert_allclose(model_q, sample_q, atol=0.15)

    def test_shapes(self, rng):
        model_q, sample_q = qq_points(rng.uniform(size=100), Normal(0, 1), n_points=33)
        assert model_q.shape == sample_q.shape == (33,)


class TestScoreboard:
    def test_hybrid_wins_on_trace(self, small_series):
        scores = score_candidates(small_series)
        assert set(scores) == {"normal", "gamma", "lognormal", "pareto", "gamma_pareto"}
        # The hybrid dominates on KS and the tail criterion.
        assert scores["gamma_pareto"].ks <= scores["normal"].ks
        assert scores["gamma_pareto"].tail_log_error < scores["normal"].tail_log_error

    def test_pareto_skips_body_scores(self, small_series):
        scores = score_candidates(small_series)
        assert np.isnan(scores["pareto"].ks)
        assert np.isfinite(scores["pareto"].tail_log_error)
