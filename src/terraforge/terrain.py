"""Ground-truth heightfield generation for the five curriculum terrains.

Each terrain family is governed by a single difficulty parameter that grows
linearly with the curriculum level l in [0, 9]; the per-robot formulas live
in PARAMETER_TABLE. Generated fields are node-based grids: cell (i, j) sits
at world (origin + i*res, origin + j*res), heights in meters.

Layout choices not covered by the difficulty parameter (stone pitch, stair
run, platform footprint) are module constants. A spec whose gap or stairs
does not fit its tile is refused when the spec is made.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np


class TerrainType(Enum):
    SLOPE = 1
    DISCRETE_STONES = 2
    STAIRS = 3
    GAP = 4
    HIGH_PLATFORM = 5

    @classmethod
    def from_name(cls, name: str) -> "TerrainType":
        key = name.strip().lower().replace("-", "_")
        # tau1..tau5, each member's name, and two short names
        aliases = {**{f"tau{t.value}": t for t in cls}, **{t.name.lower(): t for t in cls},
                   "stones": cls.DISCRETE_STONES, "platform": cls.HIGH_PLATFORM}
        if key not in aliases:
            raise ValueError(f"unknown terrain type {name!r}")
        return aliases[key]


class Robot(Enum):
    LITE3 = "lite3"
    X30 = "x30"

    @classmethod
    def from_name(cls, name: str) -> "Robot":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown robot {name!r}") from None


# (base, per-level increment) of the governing parameter, meters
PARAMETER_TABLE: dict[tuple[Robot, TerrainType], tuple[float, float]] = {
    (Robot.LITE3, TerrainType.SLOPE): (0.0, 0.05),
    (Robot.LITE3, TerrainType.DISCRETE_STONES): (0.05, 0.025),
    (Robot.LITE3, TerrainType.STAIRS): (0.05, 0.013),
    (Robot.LITE3, TerrainType.GAP): (0.2, 0.035),
    (Robot.LITE3, TerrainType.HIGH_PLATFORM): (0.1, 0.05),
    (Robot.X30, TerrainType.SLOPE): (0.0, 0.05),
    (Robot.X30, TerrainType.DISCRETE_STONES): (0.05, 0.035),
    (Robot.X30, TerrainType.STAIRS): (0.05, 0.018),
    (Robot.X30, TerrainType.GAP): (0.2, 0.06),
    (Robot.X30, TerrainType.HIGH_PLATFORM): (0.1, 0.07),
}

PARAMETER_NAMES = {
    TerrainType.SLOPE: "slope_height_difference",
    TerrainType.DISCRETE_STONES: "stone_height",
    TerrainType.STAIRS: "stair_height",
    TerrainType.GAP: "gap_width",
    TerrainType.HIGH_PLATFORM: "platform_height",
}

STAIR_RUN = 0.30  # m tread depth
STAIR_ENTRY = 1.0  # m flat runway on each end of a stairs tile
STONE_SIZE = 0.50  # m square stones
STONE_PITCH = 0.90  # m lattice pitch between stone centers
GAP_DEPTH = -1.0  # m, gap floor height (well-defined surface, not missing data)
MAX_STAIR_CLIMB = 1.8  # m, keeps peak height inside the +/-2 m bound at level 9
# cells per side of a generated tile or an elevation map: 32 MB per
# float64 grid, so a mistyped resolution is refused instead of allocated
MAX_GRID_SIDE = 2000


@dataclass(frozen=True)
class TerrainSpec:
    terrain_type: TerrainType
    level: int
    robot: Robot = Robot.LITE3
    tile_size: float = 8.0  # m, square side
    resolution: float = 0.05  # m per cell
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.level <= 9:
            raise ValueError(f"level {self.level} outside [0, 9]")
        if not 0 < self.resolution < math.inf:
            raise ValueError(f"resolution must be finite and positive, got {self.resolution}")
        if not self.tile_size > 0:
            raise ValueError(f"tile_size must be positive, got {self.tile_size}")
        cells = self.tile_size / self.resolution
        if not cells <= MAX_GRID_SIDE:
            raise ValueError(f"tile_size {self.tile_size} m at {self.resolution} m is over "
                             f"{MAX_GRID_SIDE} cells per side")
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError("tile_size must be an integer multiple of resolution")
        if round(cells) < 2:  # a one-node ramp divides by its zero length
            raise ValueError(f"tile_size {self.tile_size} m spans one node; it must be "
                             "at least 2 * resolution")
        param, extent = terrain_parameter(self), (round(cells) - 1) * self.resolution
        t = self.terrain_type
        if (t is TerrainType.GAP and param > extent - 2.0  # a landing strip on both sides
                or t is TerrainType.STAIRS and _stair_steps(param, extent) < 1):
            raise ValueError("feature exceeds tile")


class LineBounds(NamedTuple):
    """Heightfield.line_bounds. Between two points where a straight line
    crosses grid lines of `lines` in turn, the surface along it is linear
    or, inside one cell, a parabola that rises above its chord by at most
    the twist of a node of that cell times |ux uy| / max(ux^2, uy^2) / 4,
    with (ux, uy) the line's unit direction."""

    lip: float  # m per m: no slope of the surface in any direction is steeper
    twist: np.ndarray  # per node, the largest |h00 - h10 - h01 + h11| of the cells around it
    lines: tuple[np.ndarray, np.ndarray]  # ascending x and y grid lines the surface bends across


@dataclass(frozen=True, eq=False)
class Heightfield:
    """Node-based 2.5D height grid. heights[i, j] is the surface height at
    world (origin[0] + i*res, origin[1] + j*res)."""

    width: int  # cells along x
    height: int  # cells along y
    resolution: float
    origin: np.ndarray  # world x-y of cell (0, 0)
    heights: np.ndarray = field(repr=False)  # shape (width, height), m

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64))
        # a subnormal resolution's reciprocal overflows
        if not sys.float_info.min <= self.resolution < math.inf:
            raise ValueError(f"resolution must be finite and at least {sys.float_info.min}, "
                             f"got {self.resolution}")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin.tolist()}")
        h = np.asarray(self.heights, dtype=np.float64)
        if h.shape != (self.width, self.height):
            raise ValueError(f"heights shape {h.shape} != ({self.width}, {self.height})")
        if not np.all(np.isfinite(h)):
            raise ValueError("heightfield contains non-finite cells")
        object.__setattr__(self, "heights", h)

    @cached_property
    def far_corner(self) -> np.ndarray:
        """The largest world x and y on the tile, by bisection over floats:
        (x - origin) / resolution rounds, so the last node's may be off."""
        top = np.array([self.width - 1, self.height - 1])
        on, off = self.origin, self.origin + (top + 1) * self.resolution
        while np.any(((mid := on + 0.5 * (off - on)) != on) & (mid != off)):
            past = (mid - self.origin) / self.resolution > top
            on, off = np.where(past, on, mid), np.where(past, mid, off)
        return on

    @cached_property
    def line_bounds(self) -> LineBounds:
        """What bounds the bilinear surface along a straight line on the
        tile, for LiDAR march starts. Past the tile's edges the surface is
        taken as its edge nodes held outwards, as grid coordinates clamped to
        the tile give it."""
        hp = np.pad(self.heights, 1, mode="edge")
        cells = np.abs(hp[:-1, :-1] - hp[1:, :-1] - hp[:-1, 1:] + hp[1:, 1:])
        twist = np.maximum(np.maximum(cells[:-1, :-1], cells[1:, :-1]),
                           np.maximum(cells[:-1, 1:], cells[1:, 1:]))
        steps = max(np.abs(np.diff(hp, axis=0)).max(), np.abs(np.diff(hp, axis=1)).max())
        # a line bends across a grid line where a second difference across
        # it is nonzero or a cell beside it twists
        twisted = twist > 0
        bends = (np.any(hp[2:] - 2 * hp[1:-1] + hp[:-2] != 0, axis=1) | twisted.any(axis=1),
                 np.any(hp[:, 2:] - 2 * hp[:, 1:-1] + hp[:, :-2] != 0, axis=0)
                 | twisted.any(axis=0))
        return LineBounds(math.sqrt(2) * float(steps) / self.resolution, twist,
                          tuple(np.flatnonzero(b).astype(np.float64) for b in bends))

    def edge_xy(self, grad_threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """World x and y of every edge_cells cell, in ascending x (row-major
        nonzero order)."""
        exi, eyi = np.nonzero(edge_cells(self, grad_threshold))
        return self.origin[0] + exi * self.resolution, self.origin[1] + eyi * self.resolution


def edge_cells(hf: Heightfield, grad_threshold: float = 0.5) -> np.ndarray:
    """Boolean grid marking cells adjacent to a height jump larger than
    grad_threshold (one-sided differences, so both sides of a step count)."""
    mask = np.zeros(hf.heights.shape, dtype=bool)
    dx = np.abs(np.diff(hf.heights, axis=0)) > grad_threshold
    mask[:-1][dx] = True
    mask[1:][dx] = True
    dy = np.abs(np.diff(hf.heights, axis=1)) > grad_threshold
    mask[:, :-1][dy] = True
    mask[:, 1:][dy] = True
    return mask


def terrain_parameter(spec: TerrainSpec) -> float:
    """Governing dimension (m) of the terrain at (robot, type, level)."""
    base, step = PARAMETER_TABLE[(spec.robot, spec.terrain_type)]
    return base + step * spec.level


def _slope(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    # symmetric ramp: up over the first half of the tile, back down over the second
    n = heights.shape[0]
    x = np.arange(n) * res
    mid = 0.5 * (n - 1) * res
    profile = param * (1.0 - np.abs(x - mid) / mid)
    heights[:] = profile[:, None]


def _stones(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    rng = np.random.default_rng(spec.seed)
    n = heights.shape[0]
    extent = (n - 1) * res
    jitter_max = 0.5 * (STONE_PITCH - STONE_SIZE)
    centers = np.arange(0.5 * STONE_PITCH, extent, STONE_PITCH)
    for cx in centers:
        for cy in centers:
            jx, jy = rng.uniform(-jitter_max, jitter_max, size=2)
            x0, y0 = cx + jx - 0.5 * STONE_SIZE, cy + jy - 0.5 * STONE_SIZE
            i0, i1 = max(0, math.ceil(x0 / res)), min(n, math.ceil((x0 + STONE_SIZE) / res))
            j0 = max(0, math.ceil(y0 / res))
            j1 = min(n, math.ceil((y0 + STONE_SIZE) / res))
            heights[i0:i1, j0:j1] = param


def _stair_steps(param: float, extent: float) -> int:
    """Steps per flight: as many treads as fit between the runway and the
    tile's middle, capped so the top stays within MAX_STAIR_CLIMB."""
    steps = int((0.5 * extent - STAIR_ENTRY) / STAIR_RUN)
    return min(steps, int(MAX_STAIR_CLIMB / param)) if param > 0 else steps


def _stairs(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    n = heights.shape[0]
    extent = (n - 1) * res
    steps = _stair_steps(param, extent)
    x = np.arange(n) * res
    up = np.clip(np.floor((x - STAIR_ENTRY) / STAIR_RUN) + 1, 0, steps)
    down = np.clip(np.floor((extent - STAIR_ENTRY - x) / STAIR_RUN) + 1, 0, steps)
    profile = param * np.minimum(up, down)
    heights[:] = profile[:, None]


def _gap(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    n = heights.shape[0]
    extent = (n - 1) * res
    x = np.arange(n) * res
    mid = 0.5 * extent
    in_gap = (x >= mid - 0.5 * param) & (x < mid + 0.5 * param)
    heights[in_gap, :] = GAP_DEPTH


def _platform(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    n = heights.shape[0]
    x = np.arange(n) * res
    heights[x >= 0.5 * (n - 1) * res, :] = param


def generate(spec: TerrainSpec) -> Heightfield:
    """Build the ground-truth heightfield for spec.

    Deterministic for a fixed spec (seed only matters for discrete stones).
    The governing dimension measured off the returned field matches
    terrain_parameter(spec) to within one cell of resolution.
    """
    param = terrain_parameter(spec)
    res = spec.resolution
    n = round(spec.tile_size / res)
    # tile spans x in [0, tile), y centered on 0 so a +x traverse starts at the edge
    origin = np.array([0.0, -0.5 * (n - 1) * res])
    heights = np.zeros((n, n))
    {TerrainType.SLOPE: _slope, TerrainType.DISCRETE_STONES: _stones,
     TerrainType.STAIRS: _stairs, TerrainType.GAP: _gap,
     TerrainType.HIGH_PLATFORM: _platform}[spec.terrain_type](spec, param, heights, res)
    if heights.min() < -2.0 or heights.max() > 2.0:
        raise ValueError("generated terrain exceeds the +/-2 m height bound")
    return Heightfield(n, n, res, origin, heights)


def sample_height(hf: Heightfield, x: float, y: float) -> float:
    """Bilinear surface height at world (x, y); raises outside the field."""
    h, ok = sample_height_vec(hf, [x], [y])
    if not ok[0]:
        raise ValueError("outside heightfield")
    return float(h[0])


def grid_coords(hf: Heightfield, xs, ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fractional grid coordinates of world (xs, ys) and the in-bounds mask,
    the box from hf.origin to hf.far_corner."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    (x0, y0), (x1, y1) = hf.origin, hf.far_corner
    ok = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    return (xs - x0) / hf.resolution, (ys - y0) / hf.resolution, ok


def sample_height_vec(hf: Heightfield, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bilinear sampling. Returns (heights, in_bounds mask);
    out-of-bounds entries hold NaN instead of raising."""
    gx, gy, ok = grid_coords(hf, xs, ys)
    return np.where(ok, clamped_height(hf, gx, gy), np.nan), ok


def clamped_height(hf: Heightfield, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Bilinear height at grid coordinates clamped to the tile: past an
    edge, the edge's heights held outwards."""
    gxc = np.clip(gx, 0, hf.width - 1)
    gyc = np.clip(gy, 0, hf.height - 1)
    i0 = np.minimum(gxc.astype(np.int64), max(hf.width - 2, 0))
    j0 = np.minimum(gyc.astype(np.int64), max(hf.height - 2, 0))
    fx, fy = gxc - i0, gyc - j0
    gx1, gy1 = 1 - fx, 1 - fy
    # the four corners at flat offsets; a one-node side repeats its node
    h = hf.heights.ravel()
    c00 = i0 * hf.height + j0
    di = hf.height if hf.width > 1 else 0
    dj = 1 if hf.height > 1 else 0
    return (
        h.take(c00) * gx1 * gy1
        + h.take(c00 + di) * fx * gy1
        + h.take(c00 + dj) * gx1 * fy
        + h.take(c00 + di + dj) * fx * fy
    )
