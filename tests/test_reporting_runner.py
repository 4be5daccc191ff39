"""Tests for reporting helpers and the experiment runner."""

import pytest

from repro.experiments.reporting import format_kv, format_table
from repro.experiments.runner import summary_lines


class TestFormatTable:
    def test_aligned_columns(self):
        out = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].index("value") == lines[2].index("1") or "value" in lines[0]

    def test_title(self):
        out = format_table(["x"], [["1"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestFormatKV:
    def test_alignment(self):
        out = format_kv([("short", 1), ("much-longer-key", 2)])
        lines = out.splitlines()
        assert lines[0].rstrip().endswith("1")
        assert lines[1].rstrip().endswith("2")

    def test_title(self):
        assert format_kv([("a", 1)], title="T").startswith("T\n")


class TestRunner:
    def test_all_experiments_present(self, quick_campaign):
        expected = {
            "table1", "table1_codec", "table2", "table3",
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
            "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
            "fig14", "fig15", "fig16", "fig17",
        }
        assert expected <= set(quick_campaign)

    def test_summary_lines_cover_everything(self, quick_campaign):
        lines = summary_lines(quick_campaign)
        text = "\n".join(lines)
        for token in ("Table 1", "Table 2", "Table 3", "Fig 4", "Fig 11", "Fig 16"):
            assert token in text
