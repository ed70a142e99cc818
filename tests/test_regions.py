import functools
import io
import math
import tracemalloc
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from postselect import (
    EPS_FEAS,
    OutcomeDistribution,
    check_dichotomic,
    check_ternary_disk,
    check_ts_region,
    emit_ps_region,
    emit_pt_sections,
    emit_ternary,
    emit_ts_region,
)
from postselect import feasibility, regions
from postselect.feasibility import MAX_OUTCOME_POLYGON, OUTSIDE_SIMPLEX, S_BOUND
from postselect.regions import (
    CELLS,
    INSCRIBED_DISK_FRACTION,
    Axis,
    RegionGrid,
    ternary_disk_area_fraction,
    write_region_csv,
    write_region_svg,
)
from conftest import NON_REAL_PARAMS


def reference_region_csv(grid) -> str:
    """The CSV as first written, formatting each cell's coordinates in turn."""
    lines = [",".join([ax.name for ax in grid.axes] + ["feasible", "violated"])]
    for row, mask in zip(grid.coords.tolist(), grid.violated.tolist()):
        violated = ";".join(tag for k, tag in enumerate(grid.tags) if mask >> k & 1)
        feasible = "true" if mask == 0 else "false"
        lines.append(",".join(f"{x:.12g}" for x in row) + f",{feasible},{violated}")
    return "\n".join(lines) + "\n"


def reference_region_svg(grid) -> str:
    """The SVG as first written, one f-string per rect and per polyline point."""
    ax_x, ax_y = grid.axes[0], grid.axes[1]
    lo, hi = 0.0, 1.0  # every axis spans the unit interval
    w = h = hi - lo
    cw = w / ax_x.resolution
    ch = h / ax_y.resolution
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo:g} {lo:g} {w:g} {h:g}" '
        f'width="640" height="640" preserveAspectRatio="xMidYMid meet">\n',
        f'<g transform="translate(0,{(lo + hi):g}) scale(1,-1)">\n',
        f'<rect x="{lo:g}" y="{lo:g}" width="{w:g}" height="{h:g}" fill="white"/>\n',
    ]
    table = grid.feasible.reshape(ax_x.resolution, ax_y.resolution).astype(np.int8)
    step = np.diff(np.pad(table, ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(step == 1)
    ends = np.nonzero(step == -1)[1]
    xs, ys, heights = lo + rows * cw, lo + starts * ch, (ends - starts) * ch
    for x, y, height in zip(xs.tolist(), ys.tolist(), heights.tolist()):
        out.append(
            f'<rect x="{x:.6g}" y="{y:.6g}" width="{cw:.6g}" height="{height:.6g}" '
            f'fill="#b0b0b0"/>\n'
        )
    for name, pts in grid.polylines:
        joined = " ".join(f"{x:.6g},{y:.6g}" for x, y in pts.tolist())
        out.append(
            f'<polyline points="{joined}" fill="none" stroke="black" '
            f'stroke-width="{min(cw, ch) / 2:.6g}"><title>{name}</title></polyline>\n'
        )
    return "".join(out) + "</g>\n</svg>\n"


def nan_on_row(kernel, x0):
    """`kernel` with every slack it returns set to NaN where its first argument is x0."""

    def patched(x, *rest):
        out = kernel(x, *rest)
        if isinstance(out, dict):
            return {tag: np.where(x == x0, np.nan, arr) for tag, arr in out.items()}
        return np.where(x == x0, np.nan, out)

    return patched


def mesh_violated(emit, args, axes) -> tuple[tuple[str, ...], np.ndarray]:
    """Tags and bitmask from the slack kernels evaluated on the full (N,) meshgrid.

    The kernels are looked up on `feasibility` at call time, so a patched kernel
    reaches both this reference and the emitters.
    """
    x, y = (g.reshape(-1) for g in np.meshgrid(*[ax.centers() for ax in axes], indexing="ij"))
    if emit is emit_ternary:
        z = 1.0 - x - y
        disk = feasibility.ternary_disk_slack(x, y, np.maximum(z, 0.0))
        slacks = {MAX_OUTCOME_POLYGON: disk, OUTSIDE_SIMPLEX: z}
    elif emit is emit_ps_region:
        slacks = {S_BOUND: feasibility.dichotomic_slacks(x, 0.0, y)[S_BOUND]}
    elif emit is emit_pt_sections:
        slacks = feasibility.dichotomic_slacks(x, y, args[0])
    else:
        slacks = feasibility.ts_region_slacks(x, y, args[0])
    violated = np.zeros(x.shape, dtype=np.uint8)
    for k, arr in enumerate(slacks.values()):
        violated |= (~(arr >= -EPS_FEAS)).astype(np.uint8) << k
    return tuple(slacks), violated


def svg_cells(grid) -> tuple[np.ndarray, int]:
    """The (r0, r1) cell mask that the SVG's grey rects cover, and the rect count."""
    ax_x, ax_y = grid.axes
    cw, ch = 1.0 / ax_x.resolution, 1.0 / ax_y.resolution
    buf = io.StringIO()
    write_region_svg(grid, buf)
    rects = list(ET.fromstring(buf.getvalue()).iter("{http://www.w3.org/2000/svg}rect"))
    assert rects[0].get("fill") == "white"
    covered = np.zeros((ax_x.resolution, ax_y.resolution), dtype=int)
    for rect in rects[1:]:
        assert rect.get("fill") == "#b0b0b0"
        assert float(rect.get("width")) == pytest.approx(cw, rel=1e-5)
        i = round(float(rect.get("x")) / cw)
        j0 = round(float(rect.get("y")) / ch)
        j1 = j0 + round(float(rect.get("height")) / ch)
        assert 0 <= j0 < j1 <= ax_y.resolution
        covered[i, j0:j1] += 1
    assert covered.max(initial=0) <= 1, "a cell is drawn twice"
    return covered == 1, len(rects) - 1


CSV_GRIDS = (
    [pytest.param(emit_ternary, (r,), id=f"ternary-{r}") for r in (2, 3, 7, 40, 401)]
    + [pytest.param(emit_ps_region, (r,), id=f"ps-{r}") for r in (2, 3, 7, 40, 401)]
    + [
        pytest.param(emit_pt_sections, (s, r), id=f"pt-{s:.4g}-{r}")
        for s in (0.05, 0.5, 0.55, 2.0 / (2.0 + math.sqrt(3.0)), 1.0)
        for r in (7, 200)
    ]
    + [pytest.param(emit_ts_region, (n, 40), id=f"ts-{n}") for n in (1, 2, 3, 7)]
)

SVG_GRIDS = [
    pytest.param(emit_ternary, (40,), id="ternary-40"),
    pytest.param(emit_ternary, (41,), id="ternary-41"),
    pytest.param(emit_ps_region, (40,), id="ps-40"),
    pytest.param(emit_ps_region, (41,), id="ps-41"),
    pytest.param(emit_pt_sections, (0.55, 40), id="pt-0.55-40"),
    pytest.param(emit_pt_sections, (0.4, 41), id="pt-0.4-41"),
    pytest.param(emit_ts_region, (3, 40), id="ts-3-40"),
    pytest.param(emit_ts_region, (7, 41), id="ts-7-41"),
]


def assert_same_grid(got, want):
    """Equal axes, tags, bitmask, polylines and CSV bytes."""
    assert (got.axes, got.tags) == (want.axes, want.tags)
    assert np.array_equal(got.violated, want.violated)
    assert [name for name, _ in got.polylines] == [name for name, _ in want.polylines]
    for (_, a), (_, b) in zip(got.polylines, want.polylines):
        assert a.tobytes() == b.tobytes()
    texts = []
    for grid in (got, want):
        out = io.StringIO()
        write_region_csv(grid, out)
        texts.append(out.getvalue())
    assert texts[0] == texts[1]


class TestBitmask:
    @pytest.mark.parametrize(
        "emit, args", CSV_GRIDS + [pytest.param(emit_ternary, (1000,), id="ternary-1000")]
    )
    def test_broadcast_axes_match_the_mesh(self, emit, args):
        grid = emit(*args)
        tags, violated = mesh_violated(emit, args, grid.axes)
        assert grid.tags == tags
        assert grid.violated.dtype == np.uint8
        assert np.array_equal(grid.violated, violated)
        if emit is emit_pt_sections and 0.5 < args[0] < 1.0:
            # Between s = 1/2 and 1, SBound cuts some of p and holds along all of t.
            r0, r1 = (ax.resolution for ax in grid.axes)
            cut = grid.has(S_BOUND).reshape(r0, r1)
            assert cut.any() and not cut.all()
            assert np.array_equal(cut, np.repeat(cut[:, :1], r1, axis=1))

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.int64])
    def test_rejects_a_bitmask_that_is_not_uint8(self, dtype):
        axes = (Axis("x", 3), Axis("y", 4))
        with pytest.raises(ValueError, match="uint8"):
            RegionGrid(axes, ("a", "b"), np.zeros(12, dtype=dtype))
        RegionGrid(axes, ("a", "b"), np.zeros(12, dtype=np.uint8))

    @pytest.mark.parametrize(
        "size, tags", [(11, ("a", "b")), (13, ("a", "b")), (12, tuple("abcdefghi"))],
        ids=["short", "long", "nine-tags"],
    )
    def test_rejects_a_bitmask_of_the_wrong_length_or_too_many_tags(self, size, tags):
        axes = (Axis("x", 3), Axis("y", 4))
        with pytest.raises(ValueError, match="does not match cell count or tags"):
            RegionGrid(axes, tags, np.zeros(size, dtype=np.uint8))
        RegionGrid(axes, tags[:8], np.zeros(12, dtype=np.uint8))

    def test_rejects_a_bit_that_names_no_tag(self):
        # Bit 2 with two tags would index the next column of the CSV's table.
        axes = (Axis("x", 3), Axis("y", 4))
        violated = np.zeros(12, dtype=np.uint8)
        violated[5] = 4
        with pytest.raises(ValueError, match="names no tag"):
            RegionGrid(axes, ("a", "b"), violated)
        violated[5] = 3
        RegionGrid(axes, ("a", "b"), violated)


class TestRowBlocks:
    """Emitters evaluate their slacks on blocks of CELLS // r1 first-axis rows, at least one."""

    EMITTERS = [
        pytest.param(emit_ternary, (), "ternary_disk_slack", id="ternary"),
        pytest.param(emit_ps_region, (), "dichotomic_slacks", id="ps"),
        pytest.param(
            emit_pt_sections, (2.0 / (2.0 + math.sqrt(3.0)),), "dichotomic_slacks", id="pt"
        ),
        pytest.param(emit_ts_region, (3,), "ts_region_slacks", id="ts"),
    ]

    @pytest.mark.parametrize("resolution", [31, 32, 33, 65, 401])
    @pytest.mark.parametrize("emit, args, kernel", EMITTERS)
    def test_blocks_match_the_full_grid(self, monkeypatch, emit, args, kernel, resolution):
        # 1,024-cell blocks: 31 and 32 fit one block (of 33 and 32 rows); 33, 65 and
        # 401 take blocks of 31, 15 and 2 rows and end in a partial one.
        monkeypatch.setattr(regions, "CELLS", 1024)
        self.check_blocks(monkeypatch, emit, args, kernel, resolution)

    @pytest.mark.parametrize(
        "cells, resolution",
        [(CELLS, math.isqrt(CELLS)), (CELLS, math.isqrt(CELLS) + 1), (CELLS, 401), (16, 33)],
        ids=["one-block", "partial-last", "401", "one-row-floor"],
    )
    @pytest.mark.parametrize("emit, args, kernel", EMITTERS)
    def test_cell_sized_blocks(self, monkeypatch, emit, args, kernel, cells, resolution):
        # At the default CELLS = 2**14, a 128 x 128 grid is one block, 129 rows split
        # 127 + 2 and 401 rows take 40-row blocks, the last of 1; 16 cells at 33
        # columns take one row per block.
        monkeypatch.setattr(regions, "CELLS", cells)
        self.check_blocks(monkeypatch, emit, args, kernel, resolution)

    @staticmethod
    def check_blocks(monkeypatch, emit, args, kernel, resolution):
        """The blocked grid equals the meshgrid pass, with the last row's slacks all NaN.

        The last first-axis row lies in the last block, a partial one unless the
        block's rows divide the resolution.
        """
        x0 = Axis("x", resolution).centers()[-1]
        monkeypatch.setattr(feasibility, kernel, nan_on_row(getattr(feasibility, kernel), x0))
        grid = emit(*args, resolution)
        tags, violated = mesh_violated(emit, args, grid.axes)
        assert grid.tags == tags
        assert np.array_equal(grid.violated, violated)
        nan_bits = 1 if emit is emit_ternary else (1 << len(tags)) - 1
        last = grid.violated.reshape(resolution, resolution)[-1]
        assert np.all(last & nan_bits == nan_bits)

    @pytest.mark.parametrize("emit, args, kernel", EMITTERS)
    def test_working_set_is_bounded_at_resolution_1000(self, emit, args, kernel):
        # Blocks of CELLS // 1000 = 16 rows peak at 1.9-2.2 MiB here (32 rows: 2-3.5
        # MiB); slacks on the full grid peaked at 20-61 MiB.
        tracemalloc.start()
        try:
            emit(*args, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    @pytest.mark.parametrize("s", NON_REAL_PARAMS)
    def test_s_must_be_a_real_number(self, s):
        with pytest.raises(ValueError, match="not a real number"):
            emit_pt_sections(s, 20)

    @pytest.mark.parametrize("s", [Fraction(11, 20), Decimal("0.55")], ids=["Fraction", "Decimal"])
    def test_s_is_read_as_a_float(self, s):
        # The check accepts these numbers; the grid is then drawn from the float it returned.
        assert_same_grid(emit_pt_sections(s, 40), emit_pt_sections(0.55, 40))


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

    def test_n_is_read_through_index(self):
        class Three:
            def __index__(self):
                return 3

        assert_same_grid(emit_ts_region(Three(), 40), emit_ts_region(3, 40))

    def test_diagonal_polyline_present(self):
        names = [name for name, _ in emit_ts_region(2, 10).polylines]
        assert "measurement_enhanced_diagonal" in names


@pytest.mark.parametrize(
    "resolution", [2.5, np.nan, np.inf, 3.0, True], ids=["2.5", "nan", "inf", "float", "bool"]
)
@pytest.mark.parametrize(
    "emit",
    [
        emit_ternary,
        emit_ps_region,
        functools.partial(emit_pt_sections, 0.5),
        functools.partial(emit_ts_region, 2),
        ternary_disk_area_fraction,
    ],
    ids=["ternary", "ps", "pt", "ts", "area_fraction"],
)
def test_resolution_must_be_an_integer(emit, resolution):
    with pytest.raises(ValueError, match="resolution.*integer"):
        emit(resolution)


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

    @pytest.mark.parametrize("emit, args", CSV_GRIDS)
    def test_csv_matches_per_cell_reference(self, emit, args):
        grid = emit(*args)
        buf = io.StringIO()
        write_region_csv(grid, buf)
        got, want = buf.getvalue(), reference_region_csv(grid)
        # Name the first differing line: pytest's diff of a whole CSV takes minutes.
        pairs = zip(got.splitlines(), want.splitlines())
        bad = next((pair for pair in pairs if pair[0] != pair[1]), "length")
        same = got == want
        assert same, f"first difference: {bad}"

    def test_csv_streams_one_write_per_first_axis_row(self):
        axes = (Axis("x", 3), Axis("y", 5))
        violated = np.arange(15, dtype=np.uint8) % 4
        for grid in (RegionGrid(axes, ("a", "b"), violated), emit_ternary(40)):
            r0, r1 = (ax.resolution for ax in grid.axes)
            writes: list[str] = []
            write_region_csv(grid, SimpleNamespace(write=writes.append))
            assert len(writes) == 1 + r0
            assert writes[0].count("\n") == 1
            for line in writes[1:]:
                assert line.count("\n") == r1 and line.endswith("\n")
            assert "".join(writes) == reference_region_csv(grid)

    @pytest.mark.parametrize("emit, args", CSV_GRIDS)
    def test_svg_matches_per_rect_reference(self, emit, args):
        grid = emit(*args)
        buf = io.StringIO()
        write_region_svg(grid, buf)
        assert buf.getvalue() == reference_region_svg(grid)

    @pytest.mark.parametrize("emit, args", SVG_GRIDS)
    def test_svg_runs_cover_exactly_the_feasible_cells(self, emit, args):
        grid = emit(*args)
        expected = grid.feasible.reshape(grid.axes[0].resolution, grid.axes[1].resolution)
        cells, n_rects = svg_cells(grid)
        assert np.array_equal(cells, expected)
        # One rect per maximal run: as many rects as cells that start a run.
        assert n_rects == (expected & ~np.pad(expected, ((0, 0), (1, 0)))[:, :-1]).sum()

    def test_all_infeasible_svg_has_only_the_background(self):
        grid = emit_pt_sections(1e-9, 20)
        assert not grid.feasible.any()
        assert svg_cells(grid)[1] == 0

    @pytest.mark.parametrize("emit, args", SVG_GRIDS)
    def test_coords_are_the_row_major_mesh_of_the_axes(self, emit, args):
        grid = emit(*args)
        centers = [ax.centers() for ax in grid.axes]
        mesh = np.stack(np.meshgrid(*centers, indexing="ij"), -1).reshape(-1, 2)
        assert np.array_equal(grid.coords, mesh)

    def test_svg_well_formed(self):
        import xml.etree.ElementTree as ET

        buf = io.StringIO()
        write_region_svg(emit_ps_region(12), buf)
        root = ET.fromstring(buf.getvalue())
        assert root.tag.endswith("svg")
        assert buf.getvalue().count("<polyline") == 1
