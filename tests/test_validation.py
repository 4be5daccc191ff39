"""Tests for the shared argument-validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_1d_float_array,
    require_in_closed_interval,
    require_in_open_interval,
    require_nonnegative,
    require_positive,
    require_positive_int,
)


class TestRequirePositive:
    def test_accepts_positive_float(self):
        assert require_positive(2.5, "x") == 2.5

    def test_accepts_positive_int_and_returns_float(self):
        out = require_positive(3, "x")
        assert out == 3.0
        assert isinstance(out, float)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            require_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_positive(float("inf"), "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive(True, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            require_positive("3", "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ValueError, match="capacity"):
            require_positive(-1, "capacity")


class TestRequireNonnegative:
    def test_accepts_zero(self):
        assert require_nonnegative(0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_nonnegative(-0.001, "x")


class TestIntervals:
    def test_open_interval_accepts_interior(self):
        assert require_in_open_interval(0.5, "h", 0, 1) == 0.5

    def test_open_interval_rejects_boundary(self):
        with pytest.raises(ValueError):
            require_in_open_interval(1.0, "h", 0, 1)
        with pytest.raises(ValueError):
            require_in_open_interval(0.0, "h", 0, 1)

    def test_closed_interval_accepts_boundary(self):
        assert require_in_closed_interval(1.0, "q", 0, 1) == 1.0
        assert require_in_closed_interval(0.0, "q", 0, 1) == 0.0

    def test_closed_interval_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_closed_interval(1.0001, "q", 0, 1)


class TestRequirePositiveInt:
    def test_accepts_one(self):
        assert require_positive_int(1, "n") == 1

    def test_accepts_numpy_integer(self):
        assert require_positive_int(np.int64(5), "n") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive_int(0, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            require_positive_int(2.0, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive_int(True, "n")


class TestAs1DFloatArray:
    def test_converts_list(self):
        out = as_1d_float_array([1, 2, 3])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_1d_float_array([[1, 2], [3, 4]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least"):
            as_1d_float_array([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_1d_float_array([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_1d_float_array([1.0, float("inf")])

    def test_min_length(self):
        with pytest.raises(ValueError):
            as_1d_float_array([1.0, 2.0], min_length=3)


class TestUniformHurstBounds:
    """All three fGn/fARIMA generators validate H through the shared
    require_in_open_interval helper, so out-of-range values produce the
    same message shape everywhere."""

    def generators(self):
        from repro.core.daviesharte import DaviesHarteGenerator
        from repro.core.hosking import HoskingGenerator
        from repro.core.paxson import PaxsonGenerator

        return (DaviesHarteGenerator, HoskingGenerator, PaxsonGenerator)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_out_of_range_hurst_uniform_message(self, bad):
        for gen in self.generators():
            with pytest.raises(
                ValueError, match=r"hurst must lie in the open interval \(0.0, 1.0\)"
            ):
                gen(hurst=bad)

    @pytest.mark.parametrize("bad", ["0.8", True])
    def test_non_numeric_hurst_raises_typeerror(self, bad):
        for gen in self.generators():
            with pytest.raises(TypeError, match="hurst must be a real number"):
                gen(hurst=bad)

    def test_hosking_d_bounds(self):
        from repro.core.hosking import HoskingGenerator

        with pytest.raises(
            ValueError, match=r"d must lie in the open interval \(-0.5, 0.5\)"
        ):
            HoskingGenerator(d=0.5)
        assert HoskingGenerator(d=0.25).hurst == pytest.approx(0.75)

    def test_boundary_interior_accepted(self):
        for gen in self.generators():
            assert gen(hurst=1e-6).hurst == pytest.approx(1e-6)
            assert gen(hurst=1 - 1e-6).hurst == pytest.approx(1 - 1e-6)
