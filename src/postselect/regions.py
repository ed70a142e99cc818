"""Machine-readable grids and boundary curves of the feasible regions.

Grids use cell centers over half-open axis ranges, emitted in row-major
order (first axis slowest).  A grid stores its axes, per-cell tags and
polylines, and derives its cell centers (`coords`) from the axes.  Emitters
evaluate the slack kernels on blocks of CELLS // r1 first-axis rows (at
least one), the block's centers shaped (B, 1) against the second axis's
(1, r1), so work that depends on one axis is done once per axis value and the
working set stays about CELLS cells at any resolution; each block's bits are
ORed into one preallocated bitmask.  CSV is the normative artifact: each bitmask has
one list of its cells' texts (column center, then suffix), built once per
grid, and each first-axis row is joined from slices of those lists over
the row's runs of equal masks and written in one call.  The SVG holds one
rect per run of feasible cells along the second axis; all rects, and each
polyline's points, are formatted by one %-template.
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


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    resolution: int

    def centers(self) -> np.ndarray:
        step = (self.hi - self.lo) / self.resolution
        return self.lo + (np.arange(self.resolution) + 0.5) * step


@dataclass(frozen=True)
class RegionGrid:
    axes: tuple[Axis, ...]
    tags: tuple[str, ...]  # constraint tags, at most 8
    violated: np.ndarray  # (N,) uint8, bit k set when the cell violates tags[k]
    polylines: tuple[tuple[str, np.ndarray], ...] = field(default=())

    def __post_init__(self):
        expected = math.prod(_shape(self.axes))
        if self.violated.shape != (expected,) or len(self.tags) > 8:
            raise ValueError("violation bitmask does not match cell count or tags")
        if self.violated.dtype != np.uint8:
            raise ValueError(f"violation bitmask must be uint8, got {self.violated.dtype}")
        # The CSV writer indexes its (column, bitmask) table with these values.
        if (self.violated >> len(self.tags)).any():
            raise ValueError("violation bitmask sets a bit that names no tag")

    @property
    def coords(self) -> np.ndarray:
        """(N, len(axes)) cell centers, row-major."""
        out = np.empty((*_shape(self.axes), len(self.axes)))
        for k, centers in enumerate(np.ix_(*[ax.centers() for ax in self.axes])):
            out[..., k] = centers
        return out.reshape(-1, len(self.axes))

    @property
    def feasible(self) -> np.ndarray:
        """(N,) bool: the cell violates no tag."""
        return self.violated == 0

    def has(self, tag: str) -> np.ndarray:
        """(N,) bool: the cell violates `tag`."""
        return (self.violated >> self.tags.index(tag)) & 1 == 1


def _shape(axes: tuple[Axis, ...]) -> tuple[int, ...]:
    return tuple(ax.resolution for ax in axes)


def _violations(
    axes: tuple[Axis, Axis], slacks: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Tag names and the (N,) per-cell violation bitmask; NaN slacks count as violated.

    `slacks(x, y)` maps a block's first-axis centers, shaped (B, 1), and the
    second axis's centers, shaped (1, r1), to a dict of slack arrays that
    broadcast to (B, r1); pt's SBound depends on p only and stays (B, 1).
    """
    c0, c1 = (ax.centers() for ax in axes)
    violated = np.zeros((len(c0), len(c1)), dtype=np.uint8)
    rows = max(1, CELLS // len(c1))
    for r in range(0, len(c0), rows):
        named = slacks(c0[r : r + rows, None], c1[None, :])
        for k, arr in enumerate(named.values()):
            violated[r : r + rows] |= (~(arr >= -EPS_FEAS)).view(np.uint8) << np.uint8(k)
    return tuple(named), violated.reshape(-1)


def emit_ternary(resolution: int) -> RegionGrid:
    """Barycentric grid of the n = 3, T = 0 disk within the probability simplex.

    Cells whose center falls outside the simplex, p3 = 1 - p1 - p2 < 0, are
    tagged OutsideSimplex; inside cells are feasible iff they lie in the disk.
    """
    resolution = _count(resolution, "resolution", 2)
    axes = (Axis("p1", 0.0, 1.0, resolution), Axis("p2", 0.0, 1.0, resolution))

    def slacks(p1, p2):
        p3 = 1.0 - p1 - p2
        disk = feasibility.ternary_disk_slack(p1, p2, np.maximum(p3, 0.0))
        return {MAX_OUTCOME_POLYGON: disk, OUTSIDE_SIMPLEX: p3}

    return RegionGrid(axes, *_violations(axes, slacks))


def emit_ps_region(resolution: int) -> RegionGrid:
    """Two-outcome (p, S) region: S <= 1/(1 + 2 sqrt(p(1-p)))."""
    resolution = _count(resolution, "resolution", 2)
    axes = (Axis("p", 0.0, 1.0, resolution), Axis("s", 0.0, 1.0, resolution))
    tags, violated = _violations(
        axes, lambda p, s: {S_BOUND: feasibility.dichotomic_slacks(p, 0.0, s)[S_BOUND]}
    )
    pp = np.linspace(0.0, 1.0, 4 * resolution + 1)
    boundary = np.stack([pp, 1.0 / (1.0 + 2.0 * np.sqrt(pp * (1.0 - pp)))], axis=1)
    return RegionGrid(axes, tags, violated, polylines=(("s_max", boundary),))


def emit_pt_sections(s: float, resolution: int) -> RegionGrid:
    """Two-outcome (p, T) section at fixed success probability s.

    Feasible iff S (sqrt(p) - sqrt(1-p))^2 <= T <= S (sqrt(p) + sqrt(1-p))^2
    and sqrt(p) + sqrt(1-p) <= 1/sqrt(S); the last condition produces the
    vertical cuts for s > 1/2.
    """
    s = _probability(s, "s", positive=True)
    resolution = _count(resolution, "resolution", 2)
    axes = (Axis("p", 0.0, 1.0, resolution), Axis("t", 0.0, 1.0, resolution))
    tags, violated = _violations(axes, lambda p, t: feasibility.dichotomic_slacks(p, t, s))
    pp = np.linspace(0.0, 1.0, 4 * resolution + 1)
    lower = np.stack([pp, s * (np.sqrt(pp) - np.sqrt(1.0 - pp)) ** 2], axis=1)
    upper = np.stack(
        [pp, np.minimum(1.0, s * (np.sqrt(pp) + np.sqrt(1.0 - pp)) ** 2)], axis=1
    )
    return RegionGrid(axes, tags, violated, polylines=(("t_min", lower), ("t_max", upper)))


def emit_ts_region(n: int, resolution: int) -> RegionGrid:
    """(T, S) region for n outcomes: T/n <= S <= (T+1)/2."""
    n = _count(n, "n", 1)
    resolution = _count(resolution, "resolution", 2)
    axes = (Axis("t", 0.0, 1.0, resolution), Axis("s", 0.0, 1.0, resolution))
    tags, violated = _violations(axes, lambda t, s: feasibility.ts_region_slacks(t, s, n))
    diag = np.stack([np.linspace(0, 1, 2), np.linspace(0, 1, 2)], axis=1)
    return RegionGrid(
        axes, tags, violated, polylines=(("measurement_enhanced_diagonal", diag),)
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
    """Feasible cells, one rect per run along the second axis, plus boundary polylines.

    The viewBox matches the axis ranges.
    """
    ax_x, ax_y = grid.axes[0], grid.axes[1]
    w = ax_x.hi - ax_x.lo
    h = ax_y.hi - ax_y.lo
    cw = w / ax_x.resolution
    ch = h / ax_y.resolution
    stream.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{ax_x.lo:g} {ax_y.lo:g} {w:g} {h:g}" '
        f'width="640" height="640" preserveAspectRatio="xMidYMid meet">\n'
    )
    stream.write(f'<g transform="translate(0,{(ax_y.lo + ax_y.hi):g}) scale(1,-1)">\n')
    stream.write(
        f'<rect x="{ax_x.lo:g}" y="{ax_y.lo:g}" width="{w:g}" height="{h:g}" fill="white"/>\n'
    )
    # A run starts where its row's zero-padded feasibility steps up and ends where it
    # steps down; flatnonzero lists both in row-major order, so they pair up.
    table = grid.feasible.reshape(ax_x.resolution, ax_y.resolution).astype(np.int8)
    step = np.diff(np.pad(table, ((0, 0), (1, 1))), axis=1)
    rows, starts = divmod(np.flatnonzero(step == 1), ax_y.resolution + 1)
    ends = np.flatnonzero(step == -1) % (ax_y.resolution + 1)
    xs, ys, heights = ax_x.lo + rows * cw, ax_y.lo + starts * ch, (ends - starts) * ch
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
