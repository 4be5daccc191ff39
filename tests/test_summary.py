"""Tests for Table 2 summary statistics."""

import numpy as np
import pytest

from repro.analysis.summary import TraceSummary, summarize


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
