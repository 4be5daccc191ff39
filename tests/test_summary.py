"""Tests for Table 2 summary statistics."""

import numpy as np
import pytest

from repro.analysis.summary import TraceSummary, _squared_deviation_sum, summarize


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize([10.0, 20.0, 30.0], time_unit_ms=41.67)
        assert s.mean == pytest.approx(20.0)
        assert s.maximum == 30.0
        assert s.minimum == 10.0
        assert s.peak_to_mean == pytest.approx(1.5)
        assert s.n_observations == 3

    def test_coefficient_of_variation(self):
        s = summarize([10.0, 20.0, 30.0], time_unit_ms=1.0)
        assert s.coefficient_of_variation == pytest.approx(s.std / s.mean)

    def test_mean_rate_bps(self):
        """27791 bytes per 41.67 ms frame = 5.34 Mb/s (Table 1)."""
        s = summarize(np.full(100, 27_791.0), time_unit_ms=1000.0 / 24.0)
        assert s.mean_rate_bps == pytest.approx(5.34e6, rel=0.01)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            summarize([0.0, 0.0], time_unit_ms=1.0)

    def test_rejects_bad_time_unit(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], time_unit_ms=0.0)

    def test_format_rows_structure(self):
        s = summarize([5.0, 15.0], time_unit_ms=2.0)
        rows = s.format_rows()
        labels = [r[0] for r in rows]
        assert any("Peak/mean" in label for label in labels)
        assert all(isinstance(r[1], str) for r in rows)

    def test_frozen(self):
        s = summarize([1.0, 2.0], time_unit_ms=1.0)
        with pytest.raises(AttributeError):
            s.mean = 5.0

    def test_reference_trace_matches_paper(self, small_trace):
        """The calibrated trace reproduces Table 2 closely even at
        reduced length."""
        s = small_trace.summary("frame")
        assert s.mean == pytest.approx(27_791.0, rel=0.01)
        assert s.std == pytest.approx(6_254.0, rel=0.02)
        assert s.coefficient_of_variation == pytest.approx(0.23, abs=0.01)

    def test_slice_summary_cov(self, small_trace):
        s = small_trace.summary("slice")
        assert s.coefficient_of_variation == pytest.approx(0.31, abs=0.02)
        assert s.time_unit_ms == pytest.approx(1.389, abs=0.001)


def _series(kind, n, rng):
    if kind == "gamma":
        return rng.gamma(10.0, 90.0, size=n)
    if kind == "constant":
        return np.full(n, 926.4)
    if kind == "constant_runs":
        return np.repeat(rng.integers(1, 4_000, size=n // 1_000 + 1).astype(float), 1_000)[:n]
    if kind == "negative_zero":
        x = np.round(rng.gamma(2.0, 500.0, size=n))
        x[rng.random(n) < 0.3] = -0.0
        x[0] = 1.0
        return x
    if kind == "huge":
        return rng.random(n) * 1e300 + 1.0
    if kind == "large":
        return rng.random(n) * 1e150 + 1.0
    raise AssertionError(kind)


class TestBlockedStd:
    """``summarize`` sums squared deviations in pairwise runs, bit for bit
    ``np.std`` without its whole-series temporary."""

    @pytest.mark.parametrize("kind", ["gamma", "constant", "constant_runs",
                                      "negative_zero", "huge", "large"])
    @pytest.mark.parametrize("n", [1, 7, 8, 65_535, 65_536, 65_537, 131_071,
                                   131_072, 131_073, 1_200_000, 5_130_000])
    def test_matches_numpy(self, n, kind):
        x = _series(kind, n, np.random.default_rng(n))
        with np.errstate(over="ignore", invalid="ignore"):
            s = summarize(x, time_unit_ms=1.389)
            want_std = np.std(x, ddof=0)
        want_mean = np.mean(x)
        assert np.float64(s.std).tobytes() == want_std.tobytes()
        assert np.float64(s.mean).tobytes() == want_mean.tobytes()
        assert s.maximum == np.max(x)
        assert s.peak_to_mean == float(np.max(x)) / float(want_mean)

    def test_strided_and_signed_input(self):
        x = np.random.default_rng(4).normal(0.0, 1e3, size=300_001)
        for view in (x, x[::3], x[1::2]):
            mean = np.add.reduce(view) / view.size
            got = np.sqrt(_squared_deviation_sum(view, mean) / view.size)
            assert got.tobytes() == np.std(view, ddof=0).tobytes()
