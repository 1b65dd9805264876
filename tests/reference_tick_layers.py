"""Frozen copies of the per-tick layers as they were written in numpy, before
they were moved to scalars, flat indices and in-place updates: the
rotation-vector exponential, local-map extraction (with the map's cell
binning), the plane fit and local-map noise. Tests compare the code under
test with these bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from terraforge.geometry import Quaternion, quat_normalize, quat_yaw
from terraforge.mapping import LocalMap, LocalMapSpec
from terraforge.rewards import PlaneFit


def reference_quat_from_rotvec(rv) -> Quaternion:
    rv = np.asarray(rv, dtype=np.float64)
    angle = float(np.linalg.norm(rv))
    if angle < 1e-12:
        q = Quaternion(1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2])
        return quat_normalize(q)
    axis = rv / angle
    half = 0.5 * angle
    s = math.sin(half)
    return Quaternion(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


def _reference_cell_index(emap, xy):
    idx = np.floor((xy - emap.origin) / emap.resolution + 0.5).astype(np.int64)
    ok = ((idx[:, 0] >= 0) & (idx[:, 0] < emap.cells)
          & (idx[:, 1] >= 0) & (idx[:, 1] < emap.cells))
    return idx[:, 0], idx[:, 1], ok


def reference_extract_local(emap, pose, spec: LocalMapSpec) -> LocalMap:
    snap = emap.snapshot()
    xs, ys, gx, gy = spec.sample_grid
    yaw = quat_yaw(pose.orientation)
    c, s = math.cos(yaw), math.sin(yaw)
    wx = pose.position[0] + c * gx - s * gy
    wy = pose.position[1] + s * gx + c * gy
    pts = np.column_stack([wx.ravel(), wy.ravel()])
    ix, iy, ok = _reference_cell_index(emap, pts)
    known = np.zeros(len(pts), dtype=bool)
    known[ok] = np.isfinite(snap.variance[ix[ok], iy[ok]])
    rel = np.zeros(len(pts))
    rel[known] = snap.heights[ix[known], iy[known]] - pose.position[2]
    heights = rel.reshape(spec.samples_x, spec.samples_y)
    fill_ratio = 1.0 - known.sum() / known.size
    return LocalMap(heights=heights, xs=xs, ys=ys, resolution=spec.resolution,
                    fill_ratio=float(fill_ratio))


def reference_fit_plane(points, min_count: int = 10) -> PlaneFit:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (n, 3)")
    if len(pts) < min_count:
        raise ValueError(f"plane fit needs at least {min_count} points, got {len(pts)}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] <= 1e-12 * max(evals[2], 1.0):
        raise ValueError("degenerate point set")
    normal = evecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    rms = math.sqrt(max(evals[0], 0.0))
    return PlaneFit(normal=normal / np.linalg.norm(normal),
                    centroid=centroid, rms_residual=rms)


def reference_inject_map_noise(local: LocalMap, ratio: float,
                               magnitude_range=(-1.0, 2.0), seed: int = 0) -> LocalMap:
    lo, hi = magnitude_range
    cells = local.heights.size
    count = int(ratio * cells)
    if count == 0:
        return local
    rng = np.random.default_rng(seed)
    picks = rng.choice(cells, size=count, replace=False)
    heights = local.heights.copy()
    flat = heights.ravel()
    flat[picks] += rng.uniform(lo, hi, size=count)
    return replace(local, heights=heights)
