"""Reward terms for terrain-aware velocity-tracking locomotion.

Every term is computed exactly as listed in the weight table, including
the leading sign of the penalty rows; the weighted sum is a plain dot
product of raw values and weights. Vector squares mean squared norms.
The terrain-guided tracking term projects world velocity onto a direction
derived from a plane fitted to the local elevation patch, clamped at the
commanded forward speed, so driving up a platform edge is rewarded as if
the climb were forward progress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .terrain import Heightfield, TerrainType, edge_cells  # noqa: F401 (re-exported)


@dataclass(frozen=True)
class PlaneFit:
    normal: np.ndarray  # unit, z > 0
    centroid: np.ndarray
    rms_residual: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit-norm")
        if n[2] <= 0:
            raise ValueError("plane normal must point up")


def fit_plane(points, min_count: int = 10) -> PlaneFit:
    """Least-squares plane through a point set.

    The normal is the eigenvector of the centered covariance with the
    smallest eigenvalue, flipped to point up. Collinear or near-collinear
    sets have no unique plane and are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (n, 3)")
    if len(pts) < min_count:
        raise ValueError(f"plane fit needs at least {min_count} points, got {len(pts)}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    # rank < 2 means all points on a line (or a single point)
    if evals[1] <= 1e-12 * max(evals[2], 1.0):
        raise ValueError("degenerate point set")
    normal = evecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    rms = math.sqrt(max(evals[0], 0.0))
    return PlaneFit(normal=normal / np.linalg.norm(normal),
                    centroid=centroid, rms_residual=rms)


def guided_direction(fit: PlaneFit) -> np.ndarray:
    """Unit direction through the terrain: pitch the forward axis by
    -arcsin(s) with s the normal's x-component, giving (sqrt(1-s^2), 0, s)."""
    s = float(fit.normal[0])
    if abs(s) > 1.0:
        raise ValueError("normal x-component outside [-1, 1]")
    return np.array([math.sqrt(1.0 - s * s), 0.0, s])


@dataclass(frozen=True)
class RewardWeights:
    """Per-term weights plus the thresholds of the contact-derived terms.
    Defaults are the published values; feet terms carry separate weights
    for gap and platform terrains."""

    t_l_tracking: float = 3.0
    l_tracking: float = 3.0
    a_tracking: float = 0.5
    v_z: float = -2.0
    omega_x: float = -0.05
    roll: float = -10.0
    yaw: float = -1.0
    joint_acc: float = -2.5e-7
    body_height: float = -10.0
    action_rate: float = -0.04
    smoothness: float = -0.03
    hip_angle: float = -1.0
    feet_edge_gap: float = -10.0
    feet_edge_platform: float = -1.0
    feet_stumble_gap: float = -10.0
    feet_stumble_platform: float = -1.0
    # thresholds (config, not published values)
    edge_margin: float = 0.05  # m, foot-to-edge-cell distance
    grad_threshold: float = 0.5  # m per cell step
    stumble_ratio: float = 2.0  # |F_xy| vs |F_z|
    contact_force_min: float = 1.0  # N, below this a foot is airborne


def _arr(v, n, name):
    a = np.asarray(v, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},)")
    return a


@dataclass(frozen=True, eq=False)
class RewardInput:
    """One policy-rate frame of everything the reward table reads."""

    v_world: np.ndarray  # body velocity, world frame, m/s
    v_body_xy: np.ndarray  # body-frame planar velocity, m/s
    v_z: float
    omega: np.ndarray  # body rates, rad/s
    gravity_body: np.ndarray  # unit gravity direction in body frame
    yaw: float  # rad, relative to the traverse course
    joint_acc: np.ndarray  # rad/s^2
    body_height: float
    desired_height: float
    action: np.ndarray
    prev_action: np.ndarray
    prev_prev_action: np.ndarray
    hip_angles: np.ndarray
    hip_angles_desired: np.ndarray
    foot_positions: np.ndarray  # (4, 3) world
    foot_contact_forces: np.ndarray  # (4, 3) N
    command: np.ndarray  # v_cmd_x, v_cmd_y, omega_cmd_yaw
    terrain_type: TerrainType

    def __post_init__(self):
        object.__setattr__(self, "v_world", _arr(self.v_world, 3, "v_world"))
        object.__setattr__(self, "v_body_xy", _arr(self.v_body_xy, 2, "v_body_xy"))
        object.__setattr__(self, "omega", _arr(self.omega, 3, "omega"))
        object.__setattr__(self, "gravity_body", _arr(self.gravity_body, 3, "gravity_body"))
        object.__setattr__(self, "joint_acc", _arr(self.joint_acc, 12, "joint_acc"))
        for name in ("action", "prev_action", "prev_prev_action"):
            object.__setattr__(self, name, _arr(getattr(self, name), 12, name))
        for name in ("hip_angles", "hip_angles_desired"):
            object.__setattr__(self, name, _arr(getattr(self, name), 4, name))
        for name in ("foot_positions", "foot_contact_forces"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (4, 3):
                raise ValueError(f"{name} must have shape (4, 3)")
            object.__setattr__(self, name, a)
        object.__setattr__(self, "command", _arr(self.command, 3, "command"))
        g = np.linalg.norm(self.gravity_body)
        if abs(g - 1.0) > 1e-6:
            raise ValueError("gravity_body must be unit-norm")

    def _all_values(self) -> np.ndarray:
        return np.concatenate([
            self.v_world, self.v_body_xy, [self.v_z], self.omega,
            self.gravity_body, [self.yaw], self.joint_acc,
            [self.body_height, self.desired_height],
            self.action, self.prev_action, self.prev_prev_action,
            self.hip_angles, self.hip_angles_desired,
            self.foot_positions.ravel(), self.foot_contact_forces.ravel(),
            self.command,
        ])


@dataclass(frozen=True)
class RewardBreakdown:
    raw: dict[str, float]
    weighted: dict[str, float]
    total: float

    def as_record(self, timestamp_ns: int) -> dict:
        rec = {"timestamp_ns": timestamp_ns}
        rec.update({f"raw_{k}": v for k, v in self.raw.items()})
        rec.update({f"weighted_{k}": v for k, v in self.weighted.items()})
        rec["total"] = self.total
        return rec


def feet_stumble_penalty(foot_contact_forces, ratio: float = 2.0):
    """Count feet whose horizontal force dominates the vertical one, the
    signature of a toe catching an obstacle face."""
    f = np.asarray(foot_contact_forces, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite contact forces")
    flags = np.linalg.norm(f[:, :2], axis=1) > ratio * np.abs(f[:, 2])
    return flags, float(flags.sum())


def feet_edge_penalty(foot_positions, foot_contact_forces, hf: Heightfield,
                      edge_margin: float = 0.05, grad_threshold: float = 0.5,
                      contact_force_min: float = 1.0):
    """Count contacting feet within edge_margin of a sharp height jump."""
    pos = np.asarray(foot_positions, dtype=float)
    if not np.all(np.isfinite(pos)):
        raise ValueError("non-finite foot positions")
    forces = np.asarray(foot_contact_forces, dtype=float)
    in_contact = np.abs(forces[:, 2]) >= contact_force_min
    ex, ey = hf.edge_xy(grad_threshold)
    if not ex.size:
        flags = np.zeros(4, dtype=bool)
        return flags, 0.0

    # squared distance from each foot (row) to each edge cell (column)
    d2 = (ex - pos[:, 0:1]) ** 2 + (ey - pos[:, 1:2]) ** 2
    flags = in_contact & (np.min(d2, axis=1) <= edge_margin**2)
    return flags, float(flags.sum())


_GAP_PLATFORM = (TerrainType.GAP, TerrainType.HIGH_PLATFORM)


def compute_rewards(inp: RewardInput, fit: PlaneFit,
                    weights: RewardWeights | None = None,
                    terrain: Heightfield | None = None) -> RewardBreakdown:
    """Evaluate every applicable term for one frame.

    Rows gated to other terrain types contribute raw 0. The feet-edge term
    needs ground truth geometry; without a terrain it reads 0.
    """
    w = weights or RewardWeights()
    if not np.all(np.isfinite(inp._all_values())):
        raise ValueError("non-finite reward input")
    tau = inp.terrain_type
    on_gap_platform = tau in _GAP_PLATFORM
    v_cmd_x, v_cmd_y, w_cmd = inp.command

    raw: dict[str, float] = {}
    wts: dict[str, float] = {}

    if tau is TerrainType.HIGH_PLATFORM:
        n_v = guided_direction(fit)
        raw["t_l_tracking"] = float(min(np.dot(inp.v_world, n_v), v_cmd_x))
    else:
        raw["t_l_tracking"] = 0.0
    wts["t_l_tracking"] = w.t_l_tracking

    if tau is not TerrainType.HIGH_PLATFORM:
        err = (v_cmd_x - inp.v_body_xy[0]) ** 2 + (v_cmd_y - inp.v_body_xy[1]) ** 2
        raw["l_tracking"] = float(2.0 * math.exp(-4.0 * err))
    else:
        raw["l_tracking"] = 0.0
    wts["l_tracking"] = w.l_tracking

    raw["a_tracking"] = float(0.5 * math.exp(-4.0 * (w_cmd - inp.omega[2]) ** 2))
    wts["a_tracking"] = w.a_tracking

    raw["v_z"] = float(-inp.v_z**2) if tau is not TerrainType.HIGH_PLATFORM else 0.0
    wts["v_z"] = w.v_z

    raw["omega_x"] = float(-inp.omega[0] ** 2)
    wts["omega_x"] = w.omega_x

    # x-components by the book, oddity and all
    raw["roll"] = float(-abs(inp.gravity_body[0] - fit.normal[0]) ** 2)
    wts["roll"] = w.roll

    raw["yaw"] = float(-inp.yaw**2) if tau is TerrainType.HIGH_PLATFORM else 0.0
    wts["yaw"] = w.yaw

    raw["joint_acc"] = float(-np.sum(inp.joint_acc**2))
    wts["joint_acc"] = w.joint_acc

    raw["body_height"] = float(-((inp.desired_height - inp.body_height) ** 2))
    wts["body_height"] = w.body_height

    raw["action_rate"] = float(-np.sum((inp.action - inp.prev_action) ** 2))
    wts["action_rate"] = w.action_rate

    raw["smoothness"] = float(
        -np.sum((inp.action - 2.0 * inp.prev_action + inp.prev_prev_action) ** 2)
    )
    wts["smoothness"] = w.smoothness

    raw["hip_angle"] = float(-np.sum((inp.hip_angles_desired - inp.hip_angles) ** 2))
    wts["hip_angle"] = w.hip_angle

    if on_gap_platform and terrain is not None:
        _, edge_count = feet_edge_penalty(
            inp.foot_positions, inp.foot_contact_forces, terrain,
            w.edge_margin, w.grad_threshold, w.contact_force_min)
    else:
        edge_count = 0.0
    raw["feet_edge"] = edge_count
    wts["feet_edge"] = (w.feet_edge_gap if tau is TerrainType.GAP
                        else w.feet_edge_platform if tau is TerrainType.HIGH_PLATFORM
                        else 0.0)

    if on_gap_platform:
        _, stumble_count = feet_stumble_penalty(inp.foot_contact_forces, w.stumble_ratio)
    else:
        stumble_count = 0.0
    raw["feet_stumble"] = stumble_count
    wts["feet_stumble"] = (w.feet_stumble_gap if tau is TerrainType.GAP
                           else w.feet_stumble_platform if tau is TerrainType.HIGH_PLATFORM
                           else 0.0)

    weighted = {k: raw[k] * wts[k] for k in raw}
    total = float(sum(weighted.values()))
    return RewardBreakdown(raw=raw, weighted=weighted, total=total)
