"""Machine-readable grids and boundary curves of the feasible regions.

Grids use cell centers over half-open axis ranges, emitted in row-major
order (first axis slowest).  CSV is the normative artifact; SVG is a thin
rasterization of the same cells.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import EPS_FEAS
from . import feasibility
from .feasibility import MAX_OUTCOME_POLYGON, OUTSIDE_SIMPLEX, S_BOUND


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
    coords: np.ndarray  # (N, len(axes)) cell centers, row-major
    tags: tuple[str, ...]  # constraint tags, at most 8
    violated: np.ndarray  # (N,) uint8, bit k set when the cell violates tags[k]
    polylines: tuple[tuple[str, np.ndarray], ...] = field(default=())

    def __post_init__(self):
        expected = 1
        for ax in self.axes:
            expected *= ax.resolution
        if self.coords.shape != (expected, len(self.axes)):
            raise ValueError("cell count does not match axis resolutions")
        if self.violated.shape != (expected,) or len(self.tags) > 8:
            raise ValueError("violation bitmask does not match cell count or tags")

    @property
    def feasible(self) -> np.ndarray:
        """(N,) bool: the cell violates no tag."""
        return self.violated == 0

    def has(self, tag: str) -> np.ndarray:
        """(N,) bool: the cell violates `tag`."""
        return (self.violated >> self.tags.index(tag)) & 1 == 1


def _mesh(axes: tuple[Axis, ...]) -> list[np.ndarray]:
    grids = np.meshgrid(*[ax.centers() for ax in axes], indexing="ij")
    return [g.reshape(-1) for g in grids]


def _tags_from_slacks(slacks: dict[str, np.ndarray], extra_masks=None):
    """Tag names and the per-cell violation bitmask; NaN slacks count as violated."""
    bad = {tag: ~(arr >= -EPS_FEAS) for tag, arr in slacks.items()}
    if extra_masks:
        bad.update(extra_masks)
    bits = [mask.astype(np.uint8) << k for k, mask in enumerate(bad.values())]
    return tuple(bad), np.bitwise_or.reduce(bits)


def emit_ternary(resolution: int) -> RegionGrid:
    """Barycentric grid of the n = 3, T = 0 disk within the probability simplex.

    Cells whose center falls outside the simplex are tagged OutsideSimplex;
    inside cells are feasible iff they lie in the disk.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    axes = (Axis("p1", 0.0, 1.0, resolution), Axis("p2", 0.0, 1.0, resolution))
    p1, p2 = _mesh(axes)
    p3 = 1.0 - p1 - p2
    outside = p3 < -EPS_FEAS
    disk = feasibility.ternary_disk_slack(p1, p2, np.maximum(p3, 0.0))
    tags, violated = _tags_from_slacks(
        {MAX_OUTCOME_POLYGON: disk}, extra_masks={OUTSIDE_SIMPLEX: outside}
    )
    return RegionGrid(
        axes=axes, coords=np.stack([p1, p2], axis=1), tags=tags, violated=violated
    )


def emit_ps_region(resolution: int) -> RegionGrid:
    """Two-outcome (p, S) region: S <= 1/(1 + 2 sqrt(p(1-p)))."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    axes = (Axis("p", 0.0, 1.0, resolution), Axis("s", 0.0, 1.0, resolution))
    p, s = _mesh(axes)
    slack = feasibility.dichotomic_slacks(p, 0.0, s)[S_BOUND]
    tags, violated = _tags_from_slacks({S_BOUND: slack})
    pp = np.linspace(0.0, 1.0, 4 * resolution + 1)
    boundary = np.stack([pp, 1.0 / (1.0 + 2.0 * np.sqrt(pp * (1.0 - pp)))], axis=1)
    return RegionGrid(
        axes=axes,
        coords=np.stack([p, s], axis=1),
        tags=tags,
        violated=violated,
        polylines=(("s_max", boundary),),
    )


def emit_pt_sections(s: float, resolution: int) -> RegionGrid:
    """Two-outcome (p, T) section at fixed success probability s.

    Feasible iff S (sqrt(p) - sqrt(1-p))^2 <= T <= S (sqrt(p) + sqrt(1-p))^2
    and sqrt(p) + sqrt(1-p) <= 1/sqrt(S); the last condition produces the
    vertical cuts for s > 1/2.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s = {s!r} outside (0, 1]")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    axes = (Axis("p", 0.0, 1.0, resolution), Axis("t", 0.0, 1.0, resolution))
    p, t = _mesh(axes)
    slacks = feasibility.dichotomic_slacks(p, t, s)
    tags, violated = _tags_from_slacks(slacks)
    pp = np.linspace(0.0, 1.0, 4 * resolution + 1)
    lower = np.stack([pp, s * (np.sqrt(pp) - np.sqrt(1.0 - pp)) ** 2], axis=1)
    upper = np.stack(
        [pp, np.minimum(1.0, s * (np.sqrt(pp) + np.sqrt(1.0 - pp)) ** 2)], axis=1
    )
    return RegionGrid(
        axes=axes,
        coords=np.stack([p, t], axis=1),
        tags=tags,
        violated=violated,
        polylines=(("t_min", lower), ("t_max", upper)),
    )


def emit_ts_region(n: int, resolution: int) -> RegionGrid:
    """(T, S) region for n outcomes: T/n <= S <= (T+1)/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    axes = (Axis("t", 0.0, 1.0, resolution), Axis("s", 0.0, 1.0, resolution))
    t, s = _mesh(axes)
    tags, violated = _tags_from_slacks(feasibility.ts_region_slacks(t, s, n))
    diag = np.stack([np.linspace(0, 1, 2), np.linspace(0, 1, 2)], axis=1)
    return RegionGrid(
        axes=axes,
        coords=np.stack([t, s], axis=1),
        tags=tags,
        violated=violated,
        polylines=(("measurement_enhanced_diagonal", diag),),
    )


def write_region_csv(grid: RegionGrid, stream: io.TextIOBase) -> None:
    """CSV: axis columns, then `feasible`, then semicolon-joined violated tags."""
    header = [ax.name for ax in grid.axes] + ["feasible", "violated"]
    stream.write(",".join(header) + "\n")
    # One "feasible,violated" suffix per bitmask value.
    suffix = [
        ("true," if mask == 0 else "false,")
        + ";".join(tag for k, tag in enumerate(grid.tags) if mask >> k & 1)
        for mask in range(1 << len(grid.tags))
    ]
    # Rows are converted to Python lists in blocks, never the whole grid at once.
    for lo in range(0, grid.violated.size, 4096):
        rows = grid.coords[lo : lo + 4096].tolist()
        for row, mask in zip(rows, grid.violated[lo : lo + 4096].tolist()):
            stream.write(",".join(f"{x:.12g}" for x in row) + "," + suffix[mask] + "\n")


def write_region_svg(grid: RegionGrid, stream: io.TextIOBase) -> None:
    """Filled feasible cells plus boundary polylines; viewBox matches axis ranges."""
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
    for (x, y), ok in zip(grid.coords, grid.feasible):
        if ok:
            stream.write(
                f'<rect x="{x - cw / 2:.6g}" y="{y - ch / 2:.6g}" '
                f'width="{cw:.6g}" height="{ch:.6g}" fill="#b0b0b0"/>\n'
            )
    for name, pts in grid.polylines:
        joined = " ".join(f"{x:.6g},{y:.6g}" for x, y in pts)
        stream.write(
            f'<polyline points="{joined}" fill="none" stroke="black" '
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
