import io
import math

import numpy as np
import pytest

from postselect import (
    OutcomeDistribution,
    check_dichotomic,
    check_ternary_disk,
    check_ts_region,
    emit_ps_region,
    emit_pt_sections,
    emit_ternary,
    emit_ts_region,
)
from postselect.feasibility import OUTSIDE_SIMPLEX
from postselect.regions import (
    INSCRIBED_DISK_FRACTION,
    ternary_disk_area_fraction,
    write_region_csv,
    write_region_svg,
)


class TestTernaryGrid:
    def test_cells_match_pointwise_checker(self):
        grid = emit_ternary(40)
        outside = grid.has(OUTSIDE_SIMPLEX)
        for (p1, p2), ok, out in zip(grid.coords, grid.feasible, outside):
            p3 = 1.0 - p1 - p2
            if p3 < -1e-12:
                assert out
                assert not ok
                continue
            raw = np.maximum([p1, p2, p3], 0.0)
            dist = OutcomeDistribution(raw / raw.sum())
            assert ok == check_ternary_disk(dist)

    def test_area_fraction_converges(self):
        frac = ternary_disk_area_fraction(400)
        assert frac == pytest.approx(INSCRIBED_DISK_FRACTION, rel=0.01)

    def test_symmetry_under_axis_swap(self):
        grid = emit_ternary(60)
        table = grid.feasible.reshape(60, 60)
        assert np.array_equal(table, table.T)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            emit_ternary(1)


class TestPsRegion:
    def test_boundary_curve_values(self):
        grid = emit_ps_region(50)
        name, pts = grid.polylines[0]
        assert name == "s_max"
        # Fair coin caps S at 1/2; deterministic outcome allows S = 1.
        mid = pts[np.argmin(np.abs(pts[:, 0] - 0.5))]
        assert mid[1] == pytest.approx(0.5, abs=1e-12)
        assert pts[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_cells_match_pointwise(self):
        grid = emit_ps_region(30)
        for (p, s), ok in zip(grid.coords, grid.feasible):
            cap = 1.0 / (1.0 + 2.0 * math.sqrt(p * (1.0 - p)))
            assert ok == (s <= cap + 1e-12)


class TestPtSections:
    def test_cells_match_dichotomic_checker(self):
        s = 0.4
        grid = emit_pt_sections(s, 30)
        for (p, t), ok in zip(grid.coords, grid.feasible):
            assert ok == check_dichotomic(p, t, s).feasible

    def test_disconnected_support_above_threshold(self):
        # For s slightly above 2/(2+sqrt(3)) the section splits near p = 1/4, 3/4.
        grid = emit_pt_sections(0.55, 200)
        table = grid.feasible.reshape(200, 200)
        p = grid.axes[0].centers()
        has_t = table.any(axis=1)
        assert has_t[p < 0.2].all()
        assert not has_t[(p > 0.3) & (p < 0.7)].any()
        assert has_t[p > 0.8].all()

    def test_s_validation(self):
        with pytest.raises(ValueError):
            emit_pt_sections(0.0, 20)


class TestTsRegion:
    def test_cells_match_pointwise(self):
        grid = emit_ts_region(3, 30)
        for (t, s), ok in zip(grid.coords, grid.feasible):
            if s <= 0.0:
                assert not ok
                continue
            assert ok == check_ts_region(t, s, 3).feasible

    def test_more_outcomes_enlarge_region(self):
        small = emit_ts_region(2, 40).feasible
        large = emit_ts_region(6, 40).feasible
        assert (large | ~small).all()
        assert large.sum() > small.sum()

    def test_diagonal_polyline_present(self):
        names = [name for name, _ in emit_ts_region(2, 10).polylines]
        assert "measurement_enhanced_diagonal" in names


class TestSerialization:
    def test_csv_layout(self):
        grid = emit_ts_region(2, 4)
        buf = io.StringIO()
        write_region_csv(grid, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,s,feasible,violated"
        assert len(lines) == 1 + 16
        first = lines[1].split(",")
        assert first[0] == "0.125" and first[1] == "0.125"
        assert first[2] in ("true", "false")

    def test_csv_row_major_first_axis_slowest(self):
        grid = emit_ts_region(2, 3)
        t_col = grid.coords[:, 0]
        assert np.all(np.diff(t_col) >= 0)

    def test_svg_well_formed(self):
        import xml.etree.ElementTree as ET

        buf = io.StringIO()
        write_region_svg(emit_ps_region(12), buf)
        root = ET.fromstring(buf.getvalue())
        assert root.tag.endswith("svg")
        assert buf.getvalue().count("<polyline") == 1
