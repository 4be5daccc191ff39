"""The in-repo Brent solvers give scipy's answers bit for bit.

``repro._brent.brentq`` ports scipy's C ``brentq`` and
``repro._brent.bounded_minimize`` ports ``minimize_scalar(method="bounded")``.
scipy is the oracle here only; the library itself never imports
``scipy.optimize`` (``tests/test_setup_imports.py``).
"""

import math

import numpy as np
import pytest
from scipy import optimize

import repro._brent as brent
from repro._brent import bounded_minimize, brentq
from repro.analysis import hurst
from repro.core.daviesharte import DaviesHarteGenerator
from repro.distributions import hybrid
from repro.distributions.gamma import Gamma
from repro.experiments.data import reference_trace
from repro.video import starwars

pytestmark = pytest.mark.tier1

MIN_RTOL = 4 * np.finfo(float).eps


def same(a, b):
    """Equal as IEEE doubles, bit for bit (NaN equals NaN, -0.0 is not 0.0)."""
    return float(a).hex() == float(b).hex() and math.copysign(1, a) == math.copysign(1, b)


def outcome(call):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(ours, theirs):
    assert ours[0] == theirs[0], (ours, theirs)
    if ours[0] == "ok":
        assert same(ours[1], theirs[1]), (ours[1], theirs[1])
    else:
        assert ours[1] == theirs[1]


def scipy_brentq(f, a, b, xtol, rtol):
    return float(optimize.brentq(f, a, b, xtol=xtol, rtol=rtol))


def root_families(c):
    return [
        lambda x: x**3 - c,
        lambda x: math.exp(x) - c - 1.0,
        lambda x: 1e3 * math.tanh(x - c),
        lambda x: (x - c) ** 5,
        lambda x: math.log1p(x) - c if x > 0 else -c - x * x,
        lambda x: np.float64(x) * np.sin(x) - c,
        lambda x: (x - c) ** 3 * 1e-200,
    ]


class TestBrentq:
    def test_families_and_tolerances(self, seeded_rng):
        """Random brackets, xtol and rtol over several root shapes."""
        for _ in range(400):
            c = float(seeded_rng.uniform(0.1, 3.0))
            a = float(seeded_rng.uniform(-5.0, 0.0))
            b = float(seeded_rng.uniform(3.5, 9.0))
            xtol = float(10 ** seeded_rng.uniform(-15, -2))
            rtol = float(10 ** seeded_rng.uniform(math.log10(MIN_RTOL), -3))
            for f in root_families(c):
                assert_same_outcome(
                    outcome(lambda: brentq(f, a, b, xtol, rtol)),
                    outcome(lambda: scipy_brentq(f, a, b, xtol, rtol)),
                )

    def test_splice_points_over_parameter_grid(self, seeded_rng, monkeypatch):
        """``_find_splice_point`` lands on scipy's x_th for seeded (mu, sigma, a)."""
        grid = [
            (float(10 ** seeded_rng.uniform(0, 6)), float(seeded_rng.uniform(0.05, 2.0)),
             float(10 ** seeded_rng.uniform(-0.5, 1.7)))
            for _ in range(150)
        ]
        ours = [hybrid._find_splice_point(Gamma.from_moments(mu, cv * mu), a) for mu, cv, a in grid]
        monkeypatch.setattr(hybrid, "brentq", scipy_brentq)
        theirs = [hybrid._find_splice_point(Gamma.from_moments(mu, cv * mu), a) for mu, cv, a in grid]
        assert all(same(x, y) for x, y in zip(ours, theirs))

    def test_campaign_calibrated_marginal(self, monkeypatch):
        """The reference trace's marginal: every splice of the fixed point."""
        p = starwars.STARWARS_PARAMETERS
        args = (p["mean_frame_bytes"], p["std_frame_bytes"], p["tail_shape"])
        ours = starwars._calibrated_marginal(*args)
        monkeypatch.setattr(hybrid, "brentq", scipy_brentq)
        theirs = starwars._calibrated_marginal(*args)
        for name in ("mu_gamma", "sigma_gamma", "x_th", "tail_mass"):
            assert same(getattr(ours, name), getattr(theirs, name)), name

    def test_same_sign_bracket(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        ours = outcome(lambda: brentq(f, -1.0, 2.0, 1e-12, 1e-14))
        assert ours == (ValueError, "f(a) and f(b) must have different signs")
        assert ours == outcome(lambda: scipy_brentq(f, -1.0, 2.0, 1e-12, 1e-14))

    def test_nan_value(self):
        f = lambda x: math.nan if x > 0.5 else -1.0  # noqa: E731
        ours = outcome(lambda: brentq(f, 0.0, 1.0, 1e-12, 1e-14))
        assert ours[0] is ValueError and "is NaN; solver cannot continue" in ours[1]
        assert ours == outcome(lambda: scipy_brentq(f, 0.0, 1.0, 1e-12, 1e-14))

    def test_out_of_iterations(self):
        f = lambda x: (x - 0.5) ** 5  # noqa: E731
        ours = outcome(lambda: brentq(f, -5.0, 9.0, 1e-12, 1e-15))
        assert ours == (RuntimeError, "Failed to converge after 100 iterations.")
        assert ours == outcome(lambda: scipy_brentq(f, -5.0, 9.0, 1e-12, 1e-15))

    @pytest.mark.parametrize("xtol, rtol", [(0.0, 1e-14), (-1.0, 1e-14), (1e-12, 1e-17)])
    def test_bad_tolerances(self, xtol, rtol):
        f = lambda x: x - 0.5  # noqa: E731
        ours = outcome(lambda: brentq(f, 0.0, 1.0, xtol, rtol))
        assert ours[0] is ValueError
        assert ours == outcome(lambda: scipy_brentq(f, 0.0, 1.0, xtol, rtol))

    def test_zero_at_an_end(self):
        f = lambda x: x - 1.0  # noqa: E731
        assert brentq(f, 1.0, 3.0, 1e-12, 1e-14) == 1.0
        assert brentq(f, -2.0, 1.0, 1e-12, 1e-14) == 1.0

    def test_f_sees_python_floats(self):
        """As through scipy's C callback: numpy scalars never reach ``f``."""
        seen = []
        f = lambda x: seen.append(type(x)) or np.float64(x) - 0.3  # noqa: E731
        brentq(f, np.float64(0.0), np.float64(1.0), 1e-12, 1e-14)
        assert set(seen) == {float}

    def test_degenerate_division_is_ieee(self, monkeypatch):
        """A root scaled into underflow divides 0 by 0 mid-solve, as the C does."""
        zero_divisors = []
        divide = brent._div

        def spy(num, den):
            zero_divisors.append(den == 0.0)
            return divide(num, den)

        monkeypatch.setattr(brent, "_div", spy)
        f = lambda x: (x - 0.3) ** 3 * 1e-200  # noqa: E731
        for a, b in [(0.0, 1.0), (-1.0, 2.0), (0.1, 0.9)]:
            assert same(brentq(f, a, b, 1e-12, 1e-14), scipy_brentq(f, a, b, 1e-12, 1e-14))
        assert any(zero_divisors)

    def test_div_matches_numpy_ieee(self):
        values = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e-300, -1e308]
        with np.errstate(all="ignore"):
            for num in values:
                for den in values:
                    assert same(brent._div(num, den), np.float64(num) / np.float64(den)), (num, den)


def scipy_bounded(f, lo, hi, args=(), xatol=1e-5):
    return optimize.minimize_scalar(
        f, bounds=(lo, hi), args=args, method="bounded", options={"xatol": xatol}
    )


def assert_same_minimum(ours, theirs):
    assert same(ours.x, theirs.x) and same(ours.fun, theirs.fun), (ours, theirs)
    assert (ours.nfev, ours.status) == (theirs.nfev, theirs.status)


class TestBoundedMinimize:
    def test_seeded_objectives(self, seeded_rng):
        for _ in range(300):
            c = float(seeded_rng.uniform(-1.0, 1.0))
            k = float(seeded_rng.uniform(0.5, 4.0))
            w = float(seeded_rng.uniform(0.0, 8.0))
            lo = float(seeded_rng.uniform(-2.0, -0.5))
            hi = float(seeded_rng.uniform(0.5, 2.0))
            xatol = float(10 ** seeded_rng.uniform(-10, -2))
            f = lambda x, c, k, w: abs(x - c) ** k + 0.1 * np.sin(w * x)  # noqa: E731
            assert_same_minimum(
                bounded_minimize(f, lo, hi, (c, k, w), xatol), scipy_bounded(f, lo, hi, (c, k, w), xatol)
            )

    def test_out_of_function_calls_and_nan(self):
        vee = abs
        ours = bounded_minimize(vee, -1.0, 2.0, (), 0.0)
        assert ours.status == 1 and ours.nfev == 500
        assert_same_minimum(ours, scipy_bounded(vee, -1.0, 2.0, (), 0.0))
        nan = lambda x: math.nan  # noqa: E731
        assert bounded_minimize(nan, 0.0, 1.0).status == 2
        assert_same_minimum(bounded_minimize(nan, 0.0, 1.0), scipy_bounded(nan, 0.0, 1.0))

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_bounds(self, lo, hi):
        square = lambda x: x * x  # noqa: E731
        ours = outcome(lambda: bounded_minimize(square, lo, hi))
        assert ours[0] is ValueError
        assert ours == outcome(lambda: scipy_bounded(square, lo, hi))

    @staticmethod
    def whittle_both_ways(series, monkeypatch):
        """``whittle(series)`` and its captured solve, replayed through scipy."""
        calls = []

        def recording(f, lo, hi, args, xatol):
            calls.append((f, lo, hi, args, xatol))
            return bounded_minimize(f, lo, hi, args, xatol)

        monkeypatch.setattr(hurst, "bounded_minimize", recording)
        result = hurst.whittle(series)
        (f, lo, hi, args, xatol), = calls
        assert f is hurst._whittle_objective
        ours = bounded_minimize(f, lo, hi, args, xatol)
        assert_same_minimum(ours, scipy_bounded(f, lo, hi, args, xatol))
        assert result.d == float(ours.x)
        return result

    def test_whittle_on_campaign_trace(self, monkeypatch):
        """Table 3's Whittle row: the quick campaign's aggregated trace."""
        frames = reference_trace(n_frames=40_000).frame_bytes
        agg = hurst.aggregate(frames, frames.size // 250)
        result = self.whittle_both_ways(agg, monkeypatch)
        assert result == hurst.hurst_summary(frames)["whittle"]

    @pytest.mark.parametrize("h", [0.6, 0.7, 0.8, 0.9])
    def test_whittle_on_exact_fgn(self, h, monkeypatch):
        fgn = DaviesHarteGenerator(h).generate(4096, rng=np.random.default_rng(int(h * 10)))
        self.whittle_both_ways(fgn, monkeypatch)


def test_hurst_summary_rs_row_is_the_sweeps_default_cell(small_series):
    """Table 3's "rs" row is rs_pox's default call, taken from the sweep."""
    assert hurst.hurst_summary(small_series)["rs"] == hurst.rs_pox(small_series).hurst
