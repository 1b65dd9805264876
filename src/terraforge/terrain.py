"""Ground-truth heightfield generation for the five curriculum terrains.

Each terrain family is governed by a single difficulty parameter that grows
linearly with the curriculum level l in [0, 9]; the per-robot formulas live
in PARAMETER_TABLE. Generated fields are node-based grids: cell (i, j) sits
at world (origin + i*res, origin + j*res), heights in meters.

Layout choices not covered by the difficulty parameter (stone pitch, stair
run, platform footprint) are module constants, exposed as keyword arguments
on generate(); they are configuration, not derived quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
        aliases = {
            "tau1": cls.SLOPE,
            "slope": cls.SLOPE,
            "tau2": cls.DISCRETE_STONES,
            "stones": cls.DISCRETE_STONES,
            "discrete_stones": cls.DISCRETE_STONES,
            "tau3": cls.STAIRS,
            "stairs": cls.STAIRS,
            "tau4": cls.GAP,
            "gap": cls.GAP,
            "tau5": cls.HIGH_PLATFORM,
            "platform": cls.HIGH_PLATFORM,
            "high_platform": cls.HIGH_PLATFORM,
        }
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
STONE_SIZE = 0.50  # m square stones
STONE_PITCH = 0.90  # m lattice pitch between stone centers
GAP_DEPTH = -1.0  # m, gap floor height (well-defined surface, not missing data)
MAX_STAIR_CLIMB = 1.8  # m, keeps peak height inside the +/-2 m bound at level 9
BLOCK_CELLS = 4  # side of a Heightfield.block_max block, in cells


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
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if not self.tile_size > 0:
            raise ValueError(f"tile_size must be positive, got {self.tile_size}")
        cells = self.tile_size / self.resolution
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError("tile_size must be an integer multiple of resolution")


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
        h = np.asarray(self.heights, dtype=np.float64)
        if h.shape != (self.width, self.height):
            raise ValueError(f"heights shape {h.shape} != ({self.width}, {self.height})")
        if not np.all(np.isfinite(h)):
            raise ValueError("heightfield contains non-finite cells")
        object.__setattr__(self, "heights", h)

    @cached_property
    def block_max(self) -> np.ndarray:
        """Max height of each BLOCK_CELLS-square block grown by one cell."""
        b, (w, h) = BLOCK_CELLS, self.heights.shape
        grown = np.lib.stride_tricks.sliding_window_view(
            np.pad(self.heights, 1, mode="edge"), (3, 3)).max(axis=(2, 3))
        grown = np.pad(grown, ((0, -w % b), (0, -h % b)), mode="edge")
        return grown.reshape(-(-w // b), b, -(-h // b), b).max(axis=(1, 3))

    @cached_property
    def _edge_xy(self) -> dict[float, tuple[np.ndarray, np.ndarray]]:
        return {}

    def edge_xy(self, grad_threshold: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """Read-only world x and y of every edge_cells cell, computed once
        per grad_threshold and kept with the field."""
        xy = self._edge_xy.get(grad_threshold)
        if xy is None:
            exi, eyi = np.nonzero(edge_cells(self, grad_threshold))
            ex = self.origin[0] + exi * self.resolution
            ey = self.origin[1] + eyi * self.resolution
            ex.flags.writeable = ey.flags.writeable = False
            xy = self._edge_xy[grad_threshold] = (ex, ey)
        return xy

    def x_extent(self) -> float:
        return (self.width - 1) * self.resolution

    def y_extent(self) -> float:
        return (self.height - 1) * self.resolution


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


def _grid(spec: TerrainSpec) -> tuple[int, int, np.ndarray]:
    n = round(spec.tile_size / spec.resolution)
    # tile spans x in [0, tile), y centered on 0 so a +x traverse starts at the edge
    origin = np.array([0.0, -0.5 * (n - 1) * spec.resolution])
    return n, n, origin


def _slope(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    # symmetric ramp: up over the first half of the tile, back down over the second
    n = heights.shape[0]
    x = np.arange(n) * res
    mid = 0.5 * (n - 1) * res
    profile = param * (1.0 - np.abs(x - mid) / mid)
    heights[:] = profile[:, None]


def _stones(spec: TerrainSpec, param: float, heights: np.ndarray, res: float,
            stone_size: float, stone_pitch: float) -> None:
    rng = np.random.default_rng(spec.seed)
    n = heights.shape[0]
    extent = (n - 1) * res
    jitter_max = 0.5 * (stone_pitch - stone_size)
    if jitter_max < 0:
        raise ValueError("stone_pitch must be at least stone_size")
    centers = np.arange(0.5 * stone_pitch, extent, stone_pitch)
    for cx in centers:
        for cy in centers:
            jx, jy = rng.uniform(-jitter_max, jitter_max, size=2)
            x0, y0 = cx + jx - 0.5 * stone_size, cy + jy - 0.5 * stone_size
            i0, i1 = max(0, math.ceil(x0 / res)), min(n, math.ceil((x0 + stone_size) / res))
            j0 = max(0, math.ceil(y0 / res))
            j1 = min(n, math.ceil((y0 + stone_size) / res))
            heights[i0:i1, j0:j1] = param


def _stairs(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    n = heights.shape[0]
    extent = (n - 1) * res
    entry = 1.0  # m flat runway on each end
    flight = 0.5 * extent - entry
    steps = int(flight / STAIR_RUN)
    if param > 0:
        steps = min(steps, int(MAX_STAIR_CLIMB / param))
    if steps < 1:
        raise ValueError("feature exceeds tile")
    x = np.arange(n) * res
    up = np.clip(np.floor((x - entry) / STAIR_RUN) + 1, 0, steps)
    down = np.clip(np.floor((extent - entry - x) / STAIR_RUN) + 1, 0, steps)
    profile = param * np.minimum(up, down)
    heights[:] = profile[:, None]


def _gap(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    n = heights.shape[0]
    extent = (n - 1) * res
    if param > extent - 2.0:  # keep a landing strip on both sides
        raise ValueError("feature exceeds tile")
    x = np.arange(n) * res
    mid = 0.5 * extent
    in_gap = (x >= mid - 0.5 * param) & (x < mid + 0.5 * param)
    heights[in_gap, :] = GAP_DEPTH


def _platform(spec: TerrainSpec, param: float, heights: np.ndarray, res: float) -> None:
    n = heights.shape[0]
    x = np.arange(n) * res
    heights[x >= 0.5 * (n - 1) * res, :] = param


def generate(spec: TerrainSpec, *, stone_size: float = STONE_SIZE,
             stone_pitch: float = STONE_PITCH) -> Heightfield:
    """Build the ground-truth heightfield for spec.

    Deterministic for a fixed spec (seed only matters for discrete stones).
    The governing dimension measured off the returned field matches
    terrain_parameter(spec) to within one cell of resolution.
    """
    param = terrain_parameter(spec)
    nx, ny, origin = _grid(spec)
    res = spec.resolution
    heights = np.zeros((nx, ny))
    t = spec.terrain_type
    if t is TerrainType.SLOPE:
        _slope(spec, param, heights, res)
    elif t is TerrainType.DISCRETE_STONES:
        _stones(spec, param, heights, res, stone_size, stone_pitch)
    elif t is TerrainType.STAIRS:
        _stairs(spec, param, heights, res)
    elif t is TerrainType.GAP:
        _gap(spec, param, heights, res)
    elif t is TerrainType.HIGH_PLATFORM:
        _platform(spec, param, heights, res)
    if heights.min() < -2.0 or heights.max() > 2.0:
        raise ValueError("generated terrain exceeds the +/-2 m height bound")
    return Heightfield(nx, ny, res, origin, heights)


def sample_height(hf: Heightfield, x: float, y: float) -> float:
    """Bilinear surface height at world (x, y); raises outside the field."""
    gx = (x - hf.origin[0]) / hf.resolution
    gy = (y - hf.origin[1]) / hf.resolution
    if not (0.0 <= gx <= hf.width - 1 and 0.0 <= gy <= hf.height - 1):
        raise ValueError("outside heightfield")
    i0 = min(int(gx), hf.width - 2) if hf.width > 1 else 0
    j0 = min(int(gy), hf.height - 2) if hf.height > 1 else 0
    fx, fy = gx - i0, gy - j0
    h = hf.heights
    return float(
        h[i0, j0] * (1 - fx) * (1 - fy)
        + h[i0 + 1, j0] * fx * (1 - fy)
        + h[i0, j0 + 1] * (1 - fx) * fy
        + h[i0 + 1, j0 + 1] * fx * fy
    )


def grid_coords(hf: Heightfield, xs, ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fractional grid coordinates of world (xs, ys) and the in-bounds mask."""
    gx = (np.asarray(xs, dtype=np.float64) - hf.origin[0]) / hf.resolution
    gy = (np.asarray(ys, dtype=np.float64) - hf.origin[1]) / hf.resolution
    ok = (gx >= 0) & (gx <= hf.width - 1) & (gy >= 0) & (gy <= hf.height - 1)
    return gx, gy, ok


def sample_height_vec(hf: Heightfield, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bilinear sampling. Returns (heights, in_bounds mask);
    out-of-bounds entries hold NaN instead of raising."""
    gx, gy, ok = grid_coords(hf, xs, ys)
    gxc = np.clip(gx, 0, hf.width - 1)
    gyc = np.clip(gy, 0, hf.height - 1)
    i0 = np.minimum(gxc.astype(np.int64), max(hf.width - 2, 0))
    j0 = np.minimum(gyc.astype(np.int64), max(hf.height - 2, 0))
    fx, fy = gxc - i0, gyc - j0
    h = hf.heights
    i1 = np.minimum(i0 + 1, hf.width - 1)
    j1 = np.minimum(j0 + 1, hf.height - 1)
    out = (
        h[i0, j0] * (1 - fx) * (1 - fy)
        + h[i1, j0] * fx * (1 - fy)
        + h[i0, j1] * (1 - fx) * fy
        + h[i1, j1] * fx * fy
    )
    out = np.where(ok, out, np.nan)
    return out, ok
