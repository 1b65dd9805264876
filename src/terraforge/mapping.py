"""Global 2.5D elevation map with robot-centric local extraction.

The global grid is a fixed-size rolling window (default 20 m x 20 m at
0.05 m) that follows the robot in whole-cell shifts, so cell identity is
exact across re-anchoring. Each cell holds a scalar height fused by a 1D
Kalman update whose measurement variance grows with range. Cells written
by a virtual edit are pinned: scans never overwrite them, which is what
lets an operator paint a trench onto flat ground.

The map is two grids, heights and variance: a cell is unknown iff its
variance is inf and pinned iff it is 0. The Kalman update keeps a pin
(its gain P / (P + R) is 0 at P = 0) and never takes a measured cell to
0; a rule that replaces a height instead must skip variance-0 cells. It
has one writer: integrate_scan, apply_edit and recenter update the grids
in place, a shift being one in-place move per grid. snapshot() returns a
copy, so a reader holds a consistent map that later writes do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import Pose, quat_yaw
from .rewards import MIN_PLANE_POINTS
from .sensors import LidarScan, NoiseConfig, scan_points_world
from .terrain import MAX_GRID_SIDE

MAX_POSE_SCAN_DESYNC_S = 0.100
HEIGHT_BOUND = 5.0  # valid cell heights live in [-5, 5] m
# samples per local map; any grid this size has sides and a datagram
# fragment count that fit the u16 fields of localmaps.bin and telemetry
MAX_LOCAL_SAMPLES = 0xFFFF


@dataclass(frozen=True)
class VirtualEdit:
    """Axis-aligned world rectangle forced to a fixed height."""

    region: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    height: float

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.region
        if not all(map(math.isfinite, self.region)):
            raise ValueError(f"edit region bounds must be finite, got {self.region}")
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("edit region area must be positive")
        if not (-HEIGHT_BOUND <= self.height <= HEIGHT_BOUND):
            raise ValueError(f"edit height outside [-{HEIGHT_BOUND}, {HEIGHT_BOUND}]")


@dataclass(frozen=True)
class LocalMapSpec:
    """Yaw-aligned sampling rectangle for e_t. Sample counts are
    fencepost-inclusive: 1.6 x 1.0 at 0.1 gives 17 x 11 = 187. A grid the
    plane fit or the u16 local-map headers cannot take is refused."""

    length_x: float = 1.6
    length_y: float = 1.0
    resolution: float = 0.1

    def __post_init__(self):
        for name in ("length_x", "length_y", "resolution"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("length_x", "length_y"):
            ratio = getattr(self, name) / self.resolution
            if not ratio < MAX_LOCAL_SAMPLES:  # an inf ratio has no round()
                raise ValueError(f"{name} spans over {MAX_LOCAL_SAMPLES} samples")
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"{name} must be an integer multiple of resolution")
        nx, ny = self.samples_x, self.samples_y
        if min(nx, ny) < 2 or nx * ny < MIN_PLANE_POINTS:
            raise ValueError(f"local map of {nx} x {ny} samples: the plane fit needs at "
                             f"least 2 per side and {MIN_PLANE_POINTS} in all")
        if nx * ny > MAX_LOCAL_SAMPLES:
            raise ValueError(f"local map of {nx} x {ny} samples exceeds {MAX_LOCAL_SAMPLES}")

    @property
    def samples_x(self) -> int:
        return round(self.length_x / self.resolution) + 1

    @property
    def samples_y(self) -> int:
        return round(self.length_y / self.resolution) + 1

    @cached_property
    def sample_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (xs, ys, gx, gy): the sample offsets along each axis of
        the yaw-aligned body frame and their "ij" meshgrid; computed once
        per spec."""
        xs = -self.length_x / 3 + self.resolution * np.arange(self.samples_x)
        ys = -self.length_y / 2 + self.resolution * np.arange(self.samples_y)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        for a in (xs, ys, gx, gy):
            a.flags.writeable = False
        return xs, ys, gx, gy


@dataclass(frozen=True, eq=False)
class LocalMap:
    """Heights relative to body z on the yaw-aligned grid.

    xs/ys are the sample offsets in the yaw-aligned body frame; the grid
    leads 2/3 forward of the body origin. fill_ratio is the fraction of
    samples that had no map data and received the fill value (0 relative).
    """

    heights: np.ndarray  # (samples_x, samples_y)
    xs: np.ndarray
    ys: np.ndarray
    resolution: float
    fill_ratio: float

    def to_points(self) -> np.ndarray:
        """Flatten to (n, 3) body-frame points for plane fitting, row-major
        over (xs, ys) like the "ij" meshgrid of xs and ys."""
        pts = np.empty(self.heights.shape + (3,))
        pts[..., 0] = self.xs[:, None]
        pts[..., 1] = self.ys
        pts[..., 2] = self.heights
        return pts.reshape(-1, 3)


@dataclass(frozen=True, eq=False)
class MapSnapshot:
    heights: np.ndarray
    variance: np.ndarray
    valid: np.ndarray
    pinned: np.ndarray
    origin: np.ndarray  # world x-y of cell (0, 0)
    resolution: float


def _edit_window(edit: VirtualEdit, origin, resolution: float,
                 shape: tuple[int, int]) -> tuple[slice, slice]:
    """Grid cells of an edit rectangle, half-open on cell nodes, so an
    L/res-wide edit affects exactly L/res cells."""
    xmin, ymin, xmax, ymax = map(float, edit.region)
    (ox, oy), res = map(float, origin), float(resolution)
    window = []
    for lo, hi, o, n in ((xmin, xmax, ox, shape[0]), (ymin, ymax, oy, shape[1])):
        # clipped to the grid in Python floats, which overflow to inf with no
        # warning, so a far bound selects up to the edge
        i0, i1 = (math.ceil(min(max((b - o) / res - 1e-9, 0.0), n)) for b in (lo, hi))
        if i1 <= i0:
            raise ValueError("edit outside map")
        window.append(slice(i0, i1))
    return tuple(window)


def grid_cells(size: float, resolution: float) -> int:
    """Cells per side of a size x size map at the given resolution; at
    most MAX_GRID_SIDE."""
    ratio = size / resolution if size > 0 and resolution > 0 else 0.0
    if not ratio <= MAX_GRID_SIDE:
        raise ValueError(f"a {size} m map at {resolution} m is over {MAX_GRID_SIDE} "
                         "cells per side")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9:
        raise ValueError("map size must be a positive integer multiple of map resolution")
    return n


class ElevationMap:
    """Rolling heights/variance grids (unknown iff inf, pinned iff 0) with
    one in-place writer; readers take a copy through snapshot()."""

    def __init__(self, size: float = 20.0, resolution: float = 0.05,
                 center: tuple[float, float] = (0.0, 0.0)):
        self.cells = n = grid_cells(size, resolution)
        self.resolution = float(resolution)
        extent = (n - 1) * self.resolution
        self._origin = np.array([center[0] - extent / 2, center[1] - extent / 2])
        self._heights = np.zeros((n, n))
        self._variance = np.full((n, n), np.inf)

    def snapshot(self) -> MapSnapshot:
        variance = self._variance.copy()
        return MapSnapshot(self._heights.copy(), variance, np.isfinite(variance),
                           variance == 0, self._origin.copy(), self.resolution)

    @property
    def origin(self) -> np.ndarray:
        return self._origin.copy()

    def _cell_index(self, x: np.ndarray, y: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell indices of world points (x, y), and which lie on the map."""
        # cells are nodes at origin + index * resolution; nearest-node binning.
        # floor(u + 0.5), not rint: round-half-even would flip exact-tie
        # assignment whenever the origin shifts by an odd cell count
        ox, oy = self._origin.tolist()
        ix = np.floor((x - ox) / self.resolution + 0.5).astype(np.int64)
        iy = np.floor((y - oy) / self.resolution + 0.5).astype(np.int64)
        ok = (ix >= 0) & (ix < self.cells) & (iy >= 0) & (iy < self.cells)
        return ix, iy, ok

    def height_at(self, x: float, y: float) -> float | None:
        """Height of the cell containing (x, y), or None if unknown."""
        ix, iy, ok = self._cell_index(np.array([x], dtype=float), np.array([y], dtype=float))
        if not ok[0] or not np.isfinite(self._variance[ix[0], iy[0]]):
            return None
        return float(self._heights[ix[0], iy[0]])

    def recenter(self, center_xy) -> tuple[int, int]:
        """Shift the window so it is centered on center_xy, in whole cells.
        Newly exposed cells start unknown; nothing is resampled."""
        extent = (self.cells - 1) * self.resolution
        desired = np.asarray(center_xy, dtype=float) - extent / 2
        shift = np.rint((desired - self._origin) / self.resolution).astype(int)
        kx, ky = int(shift[0]), int(shift[1])
        if kx == 0 and ky == 0:
            return (0, 0)

        # new cell (i, j) is old (i + kx, j + ky), flat index f + d: one 1-D
        # move (no temporary for overlapping 1-D slices) carries every kept
        # cell and leaves stale exactly the exposed row and column strips
        n = self.cells
        d = kx * n + ky
        rows = slice(max(n - kx, 0), n) if kx > 0 else slice(0, -kx)
        cols = slice(max(n - ky, 0), n) if ky > 0 else slice(0, -ky)
        for grid, fill in ((self._heights, 0.0), (self._variance, np.inf)):
            flat = grid.reshape(-1)
            if d > 0:
                flat[:-d] = flat[d:]
            elif d < 0:
                flat[-d:] = flat[:d]
            grid[rows] = fill
            grid[:, cols] = fill
        self._origin = self._origin + shift * self.resolution
        return (kx, ky)

    def integrate_scan(self, scan: LidarScan, pose: Pose) -> int:
        """Fuse one scan taken at `pose` into the grid; returns the cells it
        measured, pinned ones included (no run path pins a cell).

        Points are per-cell aggregated (inverse-variance weighted mean)
        before the scalar Kalman update, so the result does not depend on
        point order within the scan.
        """
        desync = abs(pose.timestamp_ns - scan.timestamp_ns) * 1e-9
        if desync > MAX_POSE_SCAN_DESYNC_S:
            raise ValueError("pose-scan desync")
        if scan.points.shape[0] == 0:
            return 0

        world = scan_points_world(scan, pose)
        ranges = np.linalg.norm(scan.points, axis=1)
        meas_var = (0.01 + 0.001 * ranges) ** 2

        keep = np.abs(world[:, 2]) <= HEIGHT_BOUND
        world, meas_var = world[keep], meas_var[keep]
        ix, iy, ok = self._cell_index(world[:, 0], world[:, 1])
        ix, iy = ix[ok], iy[ok]
        z, mv = world[ok, 2], meas_var[ok]
        if z.size == 0:
            return 0

        # bin per touched cell; bincount sums each bin in point order
        touched, slot = np.unique(ix * self.cells + iy, return_inverse=True)
        w = 1.0 / mv
        sw = np.bincount(slot, weights=w)
        swz = np.bincount(slot, weights=w * z)
        z_cell = swz / sw
        var_cell = 1.0 / sw
        tix, tiy = touched // self.cells, touched % self.cells

        heights, variance = self._heights, self._variance
        seen = np.isfinite(variance[tix, tiy])
        # fresh cells take the measurement directly
        heights[tix[~seen], tiy[~seen]] = z_cell[~seen]
        variance[tix[~seen], tiy[~seen]] = var_cell[~seen]
        # seen cells fuse: k = P / (P + R)
        p = variance[tix[seen], tiy[seen]]
        k = p / (p + var_cell[seen])
        heights[tix[seen], tiy[seen]] += k * (z_cell[seen] - heights[tix[seen], tiy[seen]])
        variance[tix[seen], tiy[seen]] = (1.0 - k) * p
        return int(tix.size)

    def apply_edit(self, edit: VirtualEdit) -> int:
        """Pin every cell in the edit rectangle to the edit height."""
        window = _edit_window(edit, self._origin, self.resolution,
                              self._heights.shape)
        self._heights[window] = edit.height
        self._variance[window] = 0.0
        return self._heights[window].size

    def extract_local(self, pose: Pose, spec: LocalMapSpec | None = None) -> LocalMap:
        """Sample e_t around the body: yaw-aligned, leading 2/3 forward,
        heights relative to body z. Unknown samples fill with 0 relative."""
        spec = spec or LocalMapSpec()
        xs, ys, gx, gy = spec.sample_grid
        yaw = quat_yaw(pose.orientation)
        c, s = math.cos(yaw), math.sin(yaw)
        px, py, pz = pose.position.tolist()
        ix, iy, ok = self._cell_index(px + c * gx - s * gy, py + s * gx + c * gy)
        # one flat cell index per sample; a sample off the map reads cell 0
        # and is masked out by ok
        cell = np.where(ok, ix * self.cells + iy, 0)
        known = ok & np.isfinite(self._variance.take(cell))
        heights = np.where(known, self._heights.take(cell) - pz, 0.0)
        fill_ratio = 1.0 - known.sum() / known.size
        return LocalMap(heights=heights, xs=xs, ys=ys, resolution=spec.resolution,
                        fill_ratio=float(fill_ratio))


def edit_heightfield(hf, edit: VirtualEdit):
    """Apply a virtual edit to a plain heightfield; returns (edited, count).

    Same half-open node selection as the live map, so an L x W rectangle
    on an r grid affects exactly (L/r) * (W/r) cells. Idempotent."""
    window = _edit_window(edit, hf.origin, hf.resolution, hf.heights.shape)
    heights = hf.heights.copy()
    heights[window] = edit.height
    return replace(hf, heights=heights), heights[window].size


def inject_map_noise(local: LocalMap, noise: NoiseConfig, seed: int = 0) -> LocalMap:
    """Perturb exactly floor(ratio * cells) samples by uniform draws from the
    magnitude range, both from a NoiseConfig that checked them. Models the
    elevation-map corruption used to harden policies against mapping artifacts."""
    cells = local.heights.size
    count = int(noise.map_noise_ratio * cells)
    if count == 0:
        return local
    rng = np.random.default_rng(seed)
    picks = rng.choice(cells, size=count, replace=False)
    heights = local.heights.copy()
    heights.reshape(-1)[picks] += rng.uniform(*noise.map_noise_magnitude, size=count)
    return replace(local, heights=heights)
