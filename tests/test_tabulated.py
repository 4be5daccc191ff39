"""Tests for the tabulated distribution and its convolution.

``TestCompiledLookup`` holds ``ppf``'s compiled table lookup
(``repro._kernel.interp``) to ``np.interp``, its oracle, byte for byte.
"""

import shutil

import numpy as np
import pytest

from repro import _kernel
from repro.distributions import Normal, TabulatedDistribution
from repro.distributions.hybrid import GammaParetoHybrid


class TestConstruction:
    def test_from_distribution(self):
        t = TabulatedDistribution.from_distribution(Normal(0, 1), n_points=2001)
        assert t.cdf(0.0) == pytest.approx(0.5, abs=1e-3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TabulatedDistribution([0, 1, 2], [0.0, 1.0])

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            TabulatedDistribution([0, 0, 1], [0.0, 0.5, 1.0])

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            TabulatedDistribution([0, 1, 2], [0.0, 0.7, 0.5])

    def test_rejects_cdf_outside_unit(self):
        with pytest.raises(ValueError):
            TabulatedDistribution([0, 1], [0.0, 1.5])

    def test_support(self):
        t = TabulatedDistribution([1.0, 2.0, 4.0], [0.0, 0.5, 1.0])
        assert t.support == (1.0, 4.0)


class TestEvaluation:
    def test_cdf_interpolates_linearly(self):
        t = TabulatedDistribution([0.0, 1.0], [0.0, 1.0])
        assert t.cdf(0.25) == pytest.approx(0.25)

    def test_cdf_clamps_outside_support(self):
        t = TabulatedDistribution([0.0, 1.0], [0.0, 1.0])
        assert t.cdf(-1.0) == 0.0
        assert t.cdf(2.0) == 1.0

    def test_pdf_zero_outside_support(self):
        t = TabulatedDistribution([0.0, 1.0], [0.0, 1.0])
        assert t.pdf(-0.5) == 0.0
        assert t.pdf(1.5) == 0.0

    def test_ppf_handles_flat_cdf_regions(self):
        """Flat CDF stretches (zero density) must not break inversion."""
        t = TabulatedDistribution([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0])
        # Any x in [1, 2] is a valid inverse at the flat level itself.
        assert 0.0 <= t.ppf(0.5) <= 2.0
        assert t.ppf(0.75) == pytest.approx(2.5)
        assert t.ppf(0.25) == pytest.approx(0.5)

    def test_ppf_rejects_out_of_range(self):
        t = TabulatedDistribution([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            t.ppf(-0.1)

    def test_uniform_moments(self):
        t = TabulatedDistribution([0.0, 1.0], [0.0, 1.0])
        assert t.mean() == pytest.approx(0.5)
        assert t.var() == pytest.approx(1.0 / 12.0, rel=1e-6)

    def test_tabulated_normal_moments(self):
        t = TabulatedDistribution.from_distribution(Normal(5.0, 2.0), n_points=20_001)
        assert t.mean() == pytest.approx(5.0, abs=0.01)
        assert t.var() == pytest.approx(4.0, rel=0.02)

    def test_sampling(self, rng):
        t = TabulatedDistribution.from_distribution(Normal(0.0, 1.0), n_points=5001)
        x = t.sample(50_000, rng=rng)
        assert np.mean(x) == pytest.approx(0.0, abs=0.02)


class TestConvolution:
    def test_normal_plus_normal_is_normal(self):
        """N(0,1) * N(0,1) = N(0,2): a sharp correctness check."""
        t = TabulatedDistribution.from_distribution(Normal(0.0, 1.0), n_points=4001)
        s = t.convolve(t, n_points=4001)
        assert s.mean() == pytest.approx(0.0, abs=0.01)
        assert s.var() == pytest.approx(2.0, rel=0.02)
        target = Normal(0.0, np.sqrt(2.0))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert s.ppf(q) == pytest.approx(target.ppf(q), abs=0.02)

    def test_convolution_of_shifted_normals(self):
        a = TabulatedDistribution.from_distribution(Normal(3.0, 1.0), n_points=4001)
        b = TabulatedDistribution.from_distribution(Normal(-1.0, 2.0), n_points=4001)
        s = a.convolve(b, n_points=4001)
        assert s.mean() == pytest.approx(2.0, abs=0.02)
        assert s.var() == pytest.approx(5.0, rel=0.03)

    def test_convolve_accepts_parametric_other(self):
        a = TabulatedDistribution.from_distribution(Normal(0.0, 1.0), n_points=2001)
        s = a.convolve(Normal(0.0, 1.0), n_points=2001)
        assert s.var() == pytest.approx(2.0, rel=0.05)


def _tables():
    """The paper's 10,000-point table, a 2-point table and flat CDF runs.

    The 2-point table starts at -0.0: at that node only numpy's
    ``q[j] == u`` branch keeps the sign of the zero.
    """
    paper = TabulatedDistribution.from_distribution(
        GammaParetoHybrid(27791.0, 6254.0, 12.42), n_points=10_000,
        q_lo=1e-7, q_hi=1.0 - 1e-5)
    two = TabulatedDistribution([-0.0, 5.0], [0.25, 0.75])
    flat = TabulatedDistribution(
        np.arange(12.0), [0.0, 0.1, 0.1, 0.1, 0.4, 0.4, 0.7, 0.7, 0.7, 0.7, 0.9, 1.0])
    return {"paper": paper, "two": two, "flat": flat}


def _probes(q, rng):
    """Nodes, their float neighbours, random and evenly spaced values."""
    return np.concatenate([
        q, np.nextafter(q, np.inf), np.nextafter(q, -np.inf),
        rng.random(20_000), np.linspace(0.0, 1.0, 10_001), [0.0, -0.0, 1.0],
    ])


class TestCompiledLookup:
    @pytest.mark.parametrize("name", ["paper", "two", "flat"])
    def test_ppf_equals_np_interp(self, rng, name):
        t = _tables()[name]
        u = np.clip(_probes(t._ppf_q, rng), 0.0, 1.0)
        want = np.interp(u, t._ppf_q, t._ppf_x)
        assert t.ppf(u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["paper", "two", "flat"])
    def test_outside_the_table_and_nan(self, rng, name):
        t = _tables()[name]
        q, x = t._ppf_q, t._ppf_x
        u = np.concatenate([_probes(q, rng) * 1.5 - 0.25,
                            [np.nan, -np.inf, np.inf, -1e300, 1e300]])
        got = _kernel.interp(u, q, x, t._ppf_slopes)
        assert got.tobytes() == np.interp(u, q, x).tobytes()

    def test_zero_d_and_non_contiguous_input(self, rng):
        t = _tables()["paper"]
        for v in (0.0, 1e-7, 0.5, 0.999, 1.0):
            got = t.ppf(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.interp(v, t._ppf_q, t._ppf_x).tobytes()
        u = rng.random((300, 4))
        for view in (u[:, 1], u[::7, ::2], u.T, u[::-1]):
            got = t.ppf(view)
            assert got.shape == view.shape
            assert got.tobytes() == np.interp(view, t._ppf_q, t._ppf_x).tobytes()

    def test_library_forced_off_gives_the_same_bytes(self, rng, monkeypatch):
        t = _tables()["paper"]
        u = np.clip(_probes(t._ppf_q, rng), 0.0, 1.0)
        compiled = t.ppf(u)
        monkeypatch.setattr(_kernel._KERNEL, "lookup", False)
        assert t.ppf(u).tobytes() == compiled.tobytes()
        assert t.ppf(u[::3]).tobytes() == compiled[::3].tobytes()

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")
    def test_malformed_table_is_refused_before_the_lookup(self):
        q, x = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 4.0])
        u = np.array([0.25])
        for bad in ((q, x[:2], _kernel.interp_slopes(q, x)), (q[:1], x[:1], np.empty(0)),
                    (q, x, np.empty(1))):
            with pytest.raises(ValueError, match="1-D tables of n >= 2 nodes"):
                _kernel.interp(u, *bad)
