"""Tests for the exception hierarchy and Table-I report mechanics."""

import math

import pytest

from repro import errors
from repro.core.report import PAPER_AVERAGES, PAPER_TABLE1, Table, TableRow


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_parse_error_line_prefix(self):
        err = errors.ParseError("bad token", line=42)
        assert "line 42" in str(err)
        assert err.line == 42

    def test_parse_error_no_line(self):
        err = errors.ParseError("bad token")
        assert err.line is None

    def test_equivalence_error_carries_witness(self):
        err = errors.EquivalenceError("differs", {"a": 1})
        assert err.counterexample == {"a": 1}

    def test_hazard_is_timing_error(self):
        assert issubclass(errors.HazardError, errors.TimingError)

    def test_solver_family(self):
        from oracles.cpsat import InfeasibleError, SolverLimitError

        for cls in (InfeasibleError, SolverLimitError):
            assert issubclass(cls, errors.SolverError)


def sample_row():
    return TableRow(
        name="demo",
        t1_found=10,
        t1_used=8,
        dff_1phi=1000,
        dff_nphi=250,
        dff_t1=260,
        area_1phi=10000,
        area_nphi=4000,
        area_t1=3600,
        depth_1phi=64,
        depth_nphi=16,
        depth_t1=17,
    )


class TestTableRow:
    def test_ratios(self):
        row = sample_row()
        assert row.dff_ratio_1phi == pytest.approx(0.26)
        assert row.dff_ratio_nphi == pytest.approx(1.04)
        assert row.area_ratio_nphi == pytest.approx(0.9)
        assert row.depth_ratio_nphi == pytest.approx(17 / 16)

    def test_zero_baseline_gives_nan(self):
        row = sample_row()
        row.dff_1phi = 0
        assert math.isnan(row.dff_ratio_1phi)


class TestTable:
    def test_averages_skip_nan(self):
        r1, r2 = sample_row(), sample_row()
        r2.dff_1phi = 0  # NaN ratio must be excluded
        table = Table([r1, r2])
        avg = table.averages()
        assert avg["dff_ratio_1phi"] == pytest.approx(r1.dff_ratio_1phi)

    def test_format_layout(self):
        table = Table([sample_row()])
        text = table.format()
        lines = text.splitlines()
        assert lines[0].startswith("benchmark")
        assert any("demo" in l for l in lines)
        assert "1'000" in text  # thousands separator
        assert lines[-1].startswith("Average")

    def test_as_dicts(self):
        table = Table([sample_row()])
        d = table.as_dicts()[0]
        assert d["benchmark"] == "demo"
        assert d["dff"] == (1000, 250, 260)


class TestPaperData:
    def test_published_ratios_consistent(self):
        """The transcribed Table-I rows are internally consistent."""
        for name, row in PAPER_TABLE1.items():
            dff = row["dff"]
            assert abs(dff[2] / dff[0] - row["dff_r"][0]) < 0.012, name
            assert abs(dff[2] / dff[1] - row["dff_r"][1]) < 0.012, name
            area = row["area"]
            assert abs(area[2] / area[1] - row["area_r"][1]) < 0.012, name
            depth = row["depth"]
            assert abs(depth[2] / depth[1] - row["depth_r"][1]) < 0.012, name

    def test_published_averages_match_rows(self):
        avg = sum(r["area_r"][1] for r in PAPER_TABLE1.values()) / 8
        assert abs(avg - PAPER_AVERAGES["area_ratio_nphi"]) < 0.01
        avg = sum(r["depth_r"][1] for r in PAPER_TABLE1.values()) / 8
        assert abs(avg - PAPER_AVERAGES["depth_ratio_nphi"]) < 0.01
