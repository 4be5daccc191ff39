"""Tests for the tabulated distribution and its convolution.

``TestCompiledLookup`` holds ``ppf``'s compiled table lookup
(``repro._kernel.interp``) to ``np.interp``, its oracle, byte for byte:
on every node and its float neighbours, in the dense tail buckets,
after ``np.clip`` clamps, and with a bucket index that does not fit the
table at all.
"""

import shutil

import numpy as np
import pytest

from repro import _kernel
from repro.core.transform import _map_marginal
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
    """The paper's 10,000-point table, 2- and 3-node tables and flat CDF runs.

    The 2-point table starts at -0.0: at that node only numpy's
    ``q[j] == u`` branch keeps the sign of the zero.  ``flat_ends``
    repeats its first and last quantile nodes (flat runs at both ends
    of the table); ``level`` has one quantile for every node, a table
    of no width.
    """
    paper = TabulatedDistribution.from_distribution(
        GammaParetoHybrid(27791.0, 6254.0, 12.42), n_points=10_000,
        q_lo=1e-7, q_hi=1.0 - 1e-5)
    two = TabulatedDistribution([-0.0, 5.0], [0.25, 0.75])
    three = TabulatedDistribution([1.0, 2.0, 4.0], [0.0, 0.5, 1.0])
    flat = TabulatedDistribution(
        np.arange(12.0), [0.0, 0.1, 0.1, 0.1, 0.4, 0.4, 0.7, 0.7, 0.7, 0.7, 0.9, 1.0])
    flat_ends = TabulatedDistribution(
        np.arange(9.0), [0.2, 0.2, 0.2, 0.3, 0.5, 0.5, 0.8, 0.8, 0.8])
    level = TabulatedDistribution([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
    return {"paper": paper, "two": two, "three": three, "flat": flat,
            "flat_ends": flat_ends, "level": level}


TABLES = ["paper", "two", "three", "flat", "flat_ends", "level"]


def _probes(q, rng):
    """Nodes, their float neighbours, random and evenly spaced values."""
    return np.concatenate([
        q, np.nextafter(q, np.inf), np.nextafter(q, -np.inf),
        rng.random(20_000), np.linspace(0.0, 1.0, 10_001), [0.0, -0.0, 1.0],
    ])


def _garbage_indexes(t, rng):
    """Bucket indexes that do not fit ``t``'s table, and absurd scales."""
    first, scale = t._ppf_index
    n = t._ppf_q.size
    noise = rng.integers(-3, n + 3, size=first.size).astype(np.int32)
    return [
        (noise, scale),
        (np.zeros_like(first), scale),
        (np.full_like(first, n - 1), scale),
        (first[::-1].copy(), scale),
        (first + 1, scale),
        (np.array([n, -1], dtype=np.int32), scale),
        (first, 0.0), (first, -scale), (first, np.inf), (first, -np.inf),
        (first, np.nan), (first, 1e300), (first, 3.0 * scale),
        (np.array([np.iinfo(np.int32).max, np.iinfo(np.int32).min], dtype=np.int32), np.inf),
    ]


class TestCompiledLookup:
    @pytest.mark.parametrize("name", TABLES)
    def test_ppf_equals_np_interp(self, rng, name):
        t = _tables()[name]
        u = np.clip(_probes(t._ppf_q, rng), 0.0, 1.0)
        want = np.interp(u, t._ppf_q, t._ppf_x)
        assert t.ppf(u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", TABLES)
    def test_outside_the_table_and_nan(self, rng, name):
        t = _tables()[name]
        q, x = t._ppf_q, t._ppf_x
        u = np.concatenate([_probes(q, rng) * 1.5 - 0.25,
                            [np.nan, -np.nan, -np.inf, np.inf, -1e300, 1e300]])
        got = _kernel.interp(u, q, x, t._ppf_slopes, t._ppf_index)
        assert got.tobytes() == np.interp(u, q, x).tobytes()

    def test_flat_runs_at_both_ends_stay_in_the_table(self):
        q = _tables()["flat_ends"]._ppf_q
        assert q[0] == q[1] and q[-2] == q[-1]

    def test_table_of_no_width_has_one_bucket(self):
        first, scale = _tables()["level"]._ppf_index
        assert first.tolist() == [0, 1] and scale == 0.0

    def test_dense_tail_buckets(self, rng):
        # The Pareto tail packs hundreds of nodes into the last buckets.
        t = _tables()["paper"]
        q, x = t._ppf_q, t._ppf_x
        first, scale = t._ppf_index
        counts = np.diff(first)
        assert counts.max() > 100
        for b in np.argsort(counts)[-5:]:
            left = q[0] + b / scale
            u = np.concatenate([left + rng.random(5_000) / scale,
                                q[first[b] : first[b + 1] + 2]])
            assert t.ppf(np.clip(u, 0.0, 1.0)).tobytes() == np.interp(
                np.clip(u, 0.0, 1.0), q, x).tobytes()

    @pytest.mark.parametrize("name", TABLES)
    def test_garbage_index_gives_np_interp_bytes(self, rng, name):
        t = _tables()[name]
        q, x = t._ppf_q, t._ppf_x
        u = np.concatenate([_probes(q, rng) * 1.5 - 0.25, [np.nan, -np.inf, np.inf]])
        want = np.interp(u, q, x).tobytes()
        for index in _garbage_indexes(t, rng):
            assert _kernel.interp(u, q, x, t._ppf_slopes, index).tobytes() == want

    @pytest.mark.parametrize("name", TABLES)
    def test_clamps_equal_np_clip_then_interp(self, rng, name):
        t = _tables()[name]
        q, x = t._ppf_q, t._ppf_x
        u = np.concatenate([_probes(q, rng) * 1.5 - 0.25,
                            [np.nan, -np.inf, np.inf, 0.0, -0.0, 1.0]])
        tiny, top = np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg
        for clamps in (((tiny, top), (q[0], q[-1])), ((q[0], q[-1]), (tiny, top)),
                       ((0.3, 0.6),), ((-0.0, 0.0),), ((0.0, -0.0),), ((0.9, 0.1),),
                       ((-np.inf, np.inf), (0.5, 0.5))):
            want = u
            for lo, hi in clamps:
                want = np.clip(want, lo, hi)
            want = np.interp(want, q, x)
            got = _kernel.interp(u, q, x, t._ppf_slopes, t._ppf_index, clamps)
            assert got.tobytes() == want.tobytes(), clamps
        want = np.interp(np.clip(np.clip(u, tiny, top), q[0], q[-1]), q, x)
        assert t.ppf_clipped(u, tiny, top).tobytes() == want.tobytes()

    def test_nan_clamp_is_refused(self):
        t = _tables()["three"]
        with pytest.raises(ValueError, match="clamps must not be NaN"):
            t.ppf_clipped(np.array([0.5]), np.nan, 1.0)

    @pytest.mark.parametrize("cdf", [np.linspace(0.0, 1.0, 60) ** 3, np.zeros(60),
                                     np.ones(60)], ids=["cubic", "all_zero", "all_one"])
    def test_map_marginal_equals_clip_then_ppf(self, rng, cdf):
        # With q[0] == 0 the open-interval clip to [tiny, 1 - epsneg] is
        # what keeps u == 0 off the first node.  A table of one quantile,
        # 0 or 1, lies outside that interval, and only clipping to it
        # first, then to the table, gives the old bytes.
        table = TabulatedDistribution(np.linspace(0.0, 10.0, 60), cdf)
        source = Normal(0.3, 1.7)
        arr = np.concatenate([rng.standard_normal(20_000) * 4.0,
                              [-60.0, -40.0, -12.0, 0.3, 12.0, 40.0, 60.0]])
        u = np.clip(source.cdf(arr), np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
        want = np.asarray(table.ppf(np.clip(u, table._ppf_q[0], table._ppf_q[-1])))
        got = _map_marginal(arr, source, None, table)
        assert got.tobytes() == want.tobytes()
        if table._ppf_q[-1] > 0.0:
            assert got[arr.size - 7] != table._ppf_x[0]  # u == 0 went through tiny

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
        tiny, top = np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg
        compiled, clipped = t.ppf(u), t.ppf_clipped(u, tiny, top)
        monkeypatch.setattr(_kernel._KERNEL, "lookup", False)
        assert t.ppf(u).tobytes() == compiled.tobytes()
        assert t.ppf(u[::3]).tobytes() == compiled[::3].tobytes()
        assert t.ppf_clipped(u, tiny, top).tobytes() == clipped.tobytes()

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")
    def test_malformed_table_is_refused_before_the_lookup(self):
        q, x = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 4.0])
        u = np.array([0.25])
        index = _kernel.interp_index(q)
        for bad in ((q, x[:2], _kernel.interp_slopes(q, x), index),
                    (q[:1], x[:1], np.empty(0), index),
                    (q, x, np.empty(1), index),
                    (q, x, _kernel.interp_slopes(q, x), (np.zeros(1, np.int32), 1.0))):
            with pytest.raises(ValueError, match="1-D tables of n >= 2 nodes"):
                _kernel.interp(u, *bad)
