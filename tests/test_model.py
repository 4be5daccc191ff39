"""Tests for the four-parameter Garrett-Willinger VBR video model."""

import numpy as np
import pytest

from repro.core.model import VBRVideoModel
from repro.distributions import GammaParetoHybrid


@pytest.fixture(scope="module")
def model():
    return VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)


class TestConstruction:
    def test_marginal_is_hybrid(self, model):
        assert isinstance(model.marginal, GammaParetoHybrid)

    def test_rejects_invalid_hurst(self):
        with pytest.raises(ValueError):
            VBRVideoModel(100.0, 20.0, 5.0, 1.0)

    def test_rejects_invalid_moments(self):
        with pytest.raises(ValueError):
            VBRVideoModel(-1.0, 20.0, 5.0, 0.8)
        with pytest.raises(ValueError):
            VBRVideoModel(100.0, 0.0, 5.0, 0.8)


class TestGeneration:
    def test_marginal_statistics(self, model, rng):
        y = model.generate(20_000, rng=rng, generator="davies-harte")
        assert np.all(y > 0)
        assert np.mean(y) == pytest.approx(model.marginal.mean(), rel=0.05)
        assert np.std(y) == pytest.approx(model.marginal.std(), rel=0.25)

    def test_marginal_quantiles(self, model, rng):
        y = model.generate(40_000, rng=rng, generator="davies-harte")
        for q in (0.25, 0.5, 0.75, 0.95):
            assert np.quantile(y, q) == pytest.approx(model.marginal.ppf(q), rel=0.05)

    def test_hurst_preserved_through_transform(self, model):
        """The paper verifies realizations agree with the model's H."""
        from repro.analysis.hurst import variance_time

        y = model.generate(2**14, rng=np.random.default_rng(6), generator="davies-harte")
        assert variance_time(y).hurst == pytest.approx(0.8, abs=0.08)

    def test_hosking_and_davies_harte_statistically_equivalent(self, model):
        y1 = model.generate(4_000, rng=np.random.default_rng(1), generator="hosking")
        y2 = model.generate(4_000, rng=np.random.default_rng(1), generator="davies-harte")
        assert np.mean(y1) == pytest.approx(np.mean(y2), rel=0.05)

    def test_table_method(self, model, rng):
        y = model.generate(2_000, rng=rng, generator="davies-harte", method="table")
        assert np.all(np.isfinite(y))
        assert np.all(y > 0)

    def test_rejects_unknown_generator(self, model, rng):
        with pytest.raises(ValueError):
            model.generate(100, rng=rng, generator="magic")

    def test_gaussian_intermediate(self, model, rng):
        x = model.generate_gaussian(5_000, rng=rng, generator="davies-harte")
        # LRD sample means converge as n^(H-1): sigma ~ 5000^-0.2 =
        # 0.18, so a 3-sigma band is the honest tolerance here.
        assert np.mean(x) == pytest.approx(0.0, abs=0.6)
        assert np.var(x) == pytest.approx(1.0, abs=0.3)

    def test_generate_trace(self, model, rng):
        trace = model.generate_trace(1_000, rng=rng, generator="davies-harte")
        assert trace.n_frames == 1_000
        assert trace.frame_rate == 24.0
        assert trace.slices_per_frame == 30

    def test_reproducible(self, model):
        a = model.generate(500, rng=np.random.default_rng(3), generator="davies-harte")
        b = model.generate(500, rng=np.random.default_rng(3), generator="davies-harte")
        np.testing.assert_array_equal(a, b)


class TestFit:
    def test_fit_roundtrip(self, model):
        """Fitting the model to its own output recovers the parameters
        (the paper's own validation of the generation procedure)."""
        y = model.generate(2**15, rng=np.random.default_rng(11), generator="davies-harte")
        fitted = VBRVideoModel.fit(y, tail_fraction=model.marginal.tail_mass)
        assert fitted.mu_gamma == pytest.approx(model.marginal.mean(), rel=0.02)
        assert fitted.sigma_gamma == pytest.approx(model.marginal.std(), rel=0.15)
        assert fitted.tail_shape == pytest.approx(12.0, rel=0.35)
        assert fitted.hurst == pytest.approx(0.8, abs=0.1)

    def test_fit_from_trace(self, small_series):
        fitted = VBRVideoModel.fit(small_series)
        assert 0.6 < fitted.hurst < 0.95
        assert fitted.mu_gamma == pytest.approx(float(np.mean(small_series)), rel=1e-9)

    def test_fit_estimator_choices(self, small_series):
        h_vt = VBRVideoModel.fit(small_series, hurst_estimator="variance-time").hurst
        h_rs = VBRVideoModel.fit(small_series, hurst_estimator="rs").hurst
        assert h_vt == pytest.approx(h_rs, abs=0.15)

    def test_fit_rejects_unknown_estimator(self, small_series):
        with pytest.raises(ValueError):
            VBRVideoModel.fit(small_series, hurst_estimator="psychic")
