"""Machine-readable grids and boundary curves of the feasible regions.

Every mapped quantity (T, S, each P(k)) is a probability, so a grid has two
axes, each [0, 1] cut into equal cells, and runs row-major (first axis
slowest).  A grid stores its axes, per-cell tags and polylines, and derives
its cell centers (`coords`) from the axes.  One builder, `_build`, makes every
emitter's grid: it evaluates the slack kernels on blocks of CELLS // r
first-axis rows (at least one), the block's centers shaped (B, 1) against
the second axis's (1, r), so work that depends on one axis is done once per
axis value and the working set stays about CELLS cells at any resolution,
and ORs each block's bits into one preallocated bitmask.  CSV is the
normative artifact: each bitmask has one list of its cells' texts (column
center, then suffix), built once per grid, and each row is joined from
slices of those lists over its runs of equal masks and written in one call.
The SVG draws the unit square with one rect per run of feasible cells along
the second axis; all rects, and each polyline's points, share one %-template.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import EPS_FEAS, _count, _probability
from . import feasibility
from .feasibility import MAX_OUTCOME_POLYGON, OUTSIDE_SIMPLEX, S_BOUND

# Cells per slack block, in whole first-axis rows; bounds the emitters' working memory.
CELLS = 2**14

# The SVG's frame: the unit square, drawn with the second axis pointing up.
_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1" '
    'width="640" height="640" preserveAspectRatio="xMidYMid meet">\n'
    '<g transform="translate(0,1) scale(1,-1)">\n'
    '<rect x="0" y="0" width="1" height="1" fill="white"/>\n'
)


@dataclass(frozen=True)
class Axis:
    """A probability axis: [0, 1] cut into `resolution` equal cells."""

    name: str
    resolution: int

    def centers(self) -> np.ndarray:
        return (np.arange(self.resolution) + 0.5) * (1.0 / self.resolution)


@dataclass(frozen=True)
class RegionGrid:
    axes: tuple[Axis, Axis]
    tags: tuple[str, ...]  # constraint tags, at most 8
    violated: np.ndarray  # (N,) uint8, bit k set when the cell violates tags[k]
    polylines: tuple[tuple[str, np.ndarray], ...] = field(default=())

    def __post_init__(self):
        r0, r1 = (ax.resolution for ax in self.axes)
        if self.violated.shape != (r0 * r1,) or len(self.tags) > 8:
            raise ValueError("violation bitmask does not match cell count or tags")
        if self.violated.dtype != np.uint8:
            raise ValueError(f"violation bitmask must be uint8, got {self.violated.dtype}")
        # The CSV writer indexes its (column, bitmask) table with these values.
        if (self.violated >> len(self.tags)).any():
            raise ValueError("violation bitmask sets a bit that names no tag")

    @property
    def coords(self) -> np.ndarray:
        """(N, 2) cell centers, row-major."""
        c0, c1 = (ax.centers() for ax in self.axes)
        out = np.empty((len(c0), len(c1), 2))
        out[..., 0] = c0[:, None]
        out[..., 1] = c1
        return out.reshape(-1, 2)

    @property
    def feasible(self) -> np.ndarray:
        """(N,) bool: the cell violates no tag."""
        return self.violated == 0

    def has(self, tag: str) -> np.ndarray:
        """(N,) bool: the cell violates `tag`."""
        return (self.violated >> self.tags.index(tag)) & 1 == 1


def _build(
    names: tuple[str, str],
    resolution: int,
    slacks: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]],
    curves: Callable[[np.ndarray], tuple[tuple[str, np.ndarray], ...]] = lambda pp: (),
) -> RegionGrid:
    """The grid of `slacks` on two axes of `resolution` cells; NaN slacks count as violated.

    `slacks(x, y)` maps a block's first-axis centers, shaped (B, 1), and the
    second axis's centers, shaped (1, r), to a dict of slack arrays that
    broadcast to (B, r); pt's SBound depends on p only and stays (B, 1).
    `curves(pp)` gives the polylines, sampled at pp = linspace(0, 1, 4 r + 1).
    """
    r = _count(resolution, "resolution", 2)
    axes = (Axis(names[0], r), Axis(names[1], r))
    centers = axes[0].centers()
    violated = np.zeros((r, r), dtype=np.uint8)
    rows = max(1, CELLS // r)
    for i in range(0, r, rows):
        named = slacks(centers[i : i + rows, None], centers[None, :])
        for k, arr in enumerate(named.values()):
            violated[i : i + rows] |= (~(arr >= -EPS_FEAS)).view(np.uint8) << np.uint8(k)
    polylines = curves(np.linspace(0.0, 1.0, 4 * r + 1))
    return RegionGrid(axes, tuple(named), violated.reshape(-1), polylines)


def emit_ternary(resolution: int) -> RegionGrid:
    """Barycentric grid of the n = 3, T = 0 disk within the probability simplex.

    Cells whose center falls outside the simplex, p3 = 1 - p1 - p2 < 0, are
    tagged OutsideSimplex; inside cells are feasible iff they lie in the disk.
    """

    def slacks(p1, p2):
        p3 = 1.0 - p1 - p2
        disk = feasibility.ternary_disk_slack(p1, p2, np.maximum(p3, 0.0))
        return {MAX_OUTCOME_POLYGON: disk, OUTSIDE_SIMPLEX: p3}

    return _build(("p1", "p2"), resolution, slacks)


def emit_ps_region(resolution: int) -> RegionGrid:
    """Two-outcome (p, S) region: S <= 1/(1 + 2 sqrt(p(1-p)))."""
    return _build(
        ("p", "s"),
        resolution,
        lambda p, s: {S_BOUND: feasibility.dichotomic_slacks(p, 0.0, s)[S_BOUND]},
        lambda pp: (("s_max", np.stack([pp, 1.0 / (1.0 + 2.0 * np.sqrt(pp * (1.0 - pp)))], 1)),),
    )


def emit_pt_sections(s: float, resolution: int) -> RegionGrid:
    """Two-outcome (p, T) section at fixed success probability s.

    Feasible iff S (sqrt(p) - sqrt(1-p))^2 <= T <= S (sqrt(p) + sqrt(1-p))^2
    and sqrt(p) + sqrt(1-p) <= 1/sqrt(S); the last condition produces the
    vertical cuts for s > 1/2.
    """
    s = _probability(s, "s", positive=True)

    def edges(pp):
        lower = s * (np.sqrt(pp) - np.sqrt(1.0 - pp)) ** 2
        upper = np.minimum(1.0, s * (np.sqrt(pp) + np.sqrt(1.0 - pp)) ** 2)
        return ("t_min", np.stack([pp, lower], 1)), ("t_max", np.stack([pp, upper], 1))

    return _build(("p", "t"), resolution, lambda p, t: feasibility.dichotomic_slacks(p, t, s), edges)


def emit_ts_region(n: int, resolution: int) -> RegionGrid:
    """(T, S) region for n outcomes: T/n <= S <= (T+1)/2."""
    n = _count(n, "n", 1)
    diag = np.array([[0.0, 0.0], [1.0, 1.0]])
    return _build(
        ("t", "s"),
        resolution,
        lambda t, s: feasibility.ts_region_slacks(t, s, n),
        lambda pp: (("measurement_enhanced_diagonal", diag),),
    )


def write_region_csv(grid: RegionGrid, stream: io.TextIOBase) -> None:
    """CSV: axis columns, then `feasible`, then semicolon-joined violated tags."""
    header = [ax.name for ax in grid.axes] + ["feasible", "violated"]
    stream.write(",".join(header) + "\n")
    # One "feasible,violated" line ending per bitmask value.
    suffix = [
        ("true," if mask == 0 else "false,")
        + ";".join(tag for k, tag in enumerate(grid.tags) if mask >> k & 1)
        + "\n"
        for mask in range(1 << len(grid.tags))
    ]
    # texts[mask][j] is column j's axis center, then the suffix of `mask`.  A row
    # joins its axis center with the cells, taken as one slice of texts[mask] per
    # run of equal masks, so each line is built in one join and written in one call.
    rows, cols = ([f"{x:.12g}," for x in ax.centers().tolist()] for ax in grid.axes)
    texts = [[col + end for col in cols] for end in suffix]
    r1 = len(cols)
    masks = grid.violated.reshape(len(rows), r1)
    # A run starts at each row's first cell and wherever the mask changes, and ends
    # where the next run starts.  flatnonzero is many times faster than a 2-D nonzero.
    starts = np.ones(masks.shape, dtype=bool)
    np.not_equal(masks[:, 1:], masks[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    run_rows, run_cols = divmod(first, r1)
    run_ends = np.append(first[1:], masks.size) - run_rows * r1
    line = [""]
    for i, j, k, mask in zip(
        run_rows.tolist(), run_cols.tolist(), run_ends.tolist(), grid.violated[first].tolist()
    ):
        line += texts[mask][j:k]
        if k == r1:
            stream.write(rows[i].join(line))
            line = [""]


def write_region_svg(grid: RegionGrid, stream: io.TextIOBase) -> None:
    """Feasible cells, one rect per run along the second axis, plus boundary polylines."""
    ax_x, ax_y = grid.axes
    cw, ch = 1.0 / ax_x.resolution, 1.0 / ax_y.resolution
    stream.write(_SVG_HEAD)
    # A run starts where its row's zero-padded feasibility steps up and ends where it
    # steps down; flatnonzero lists both in row-major order, so they pair up.
    table = grid.feasible.reshape(ax_x.resolution, ax_y.resolution).astype(np.int8)
    step = np.diff(np.pad(table, ((0, 0), (1, 1))), axis=1)
    rows, starts = divmod(np.flatnonzero(step == 1), ax_y.resolution + 1)
    ends = np.flatnonzero(step == -1) % (ax_y.resolution + 1)
    xs, ys, heights = rows * cw, starts * ch, (ends - starts) * ch
    rect = f'<rect x="%.6g" y="%.6g" width="{cw:.6g}" height="%.6g" fill="#b0b0b0"/>\n'
    stream.write(rect * len(xs) % tuple(np.stack([xs, ys, heights], axis=1).ravel().tolist()))
    for name, pts in grid.polylines:
        points = " ".join(["%.6g,%.6g"] * len(pts)) % tuple(pts.ravel().tolist())
        stream.write(
            f'<polyline points="{points}" fill="none" stroke="black" '
            f'stroke-width="{min(cw, ch) / 2:.6g}"><title>{name}</title></polyline>\n'
        )
    stream.write("</g>\n</svg>\n")


def ternary_disk_area_fraction(resolution: int = 400) -> float:
    """Feasible fraction of the simplex at the given resolution.

    Cross-check value: the disk is the inscribed circle of the simplex,
    area fraction pi/(3 sqrt(3)).
    """
    grid = emit_ternary(resolution)
    return float(grid.feasible[~grid.has(OUTSIDE_SIMPLEX)].mean())


INSCRIBED_DISK_FRACTION = math.pi / (3.0 * math.sqrt(3.0))
