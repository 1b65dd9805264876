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

from .geometry import as_vec3, elementwise, norm3
from .terrain import Heightfield, TerrainType


@dataclass(frozen=True)
class PlaneFit:
    normal: np.ndarray  # unit, z >= 0
    centroid: np.ndarray
    rms_residual: float

    def __post_init__(self):
        n = as_vec3(self.normal)
        if abs(norm3(n) - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit-norm")
        if n[2] < 0:  # a vertical plane (z = 0) is a valid fit
            raise ValueError("plane normal must not point down")


MIN_PLANE_POINTS = 10


def fit_plane(points) -> PlaneFit:
    """Least-squares plane through a point set.

    The normal is the eigenvector of the centered covariance with the
    smallest eigenvalue, flipped so it does not point down. Collinear or
    near-collinear sets have no unique plane and are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (n, 3)")
    if len(pts) < MIN_PLANE_POINTS:
        raise ValueError(f"plane fit needs at least {MIN_PLANE_POINTS} points, got {len(pts)}")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    e0, e1, e2 = evals.tolist()
    # rank < 2 means all points on a line (or a single point)
    if e1 <= 1e-12 * max(e2, 1.0):
        raise ValueError("degenerate point set")
    normal = evecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    return PlaneFit(normal=normal / norm3(normal), centroid=centroid,
                    rms_residual=math.sqrt(max(e0, 0.0)))


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


TERMS = ("t_l_tracking", "l_tracking", "a_tracking", "v_z", "omega_x", "roll",
         "yaw", "joint_acc", "body_height", "action_rate", "smoothness",
         "hip_angle", "feet_edge", "feet_stumble")  # record order
_T_L, _ROLL = TERMS.index("t_l_tracking"), TERMS.index("roll")

# the keys of a reward log record; compute_rewards returns the values of
# all but the timestamp, and WEIGHTED picks the weighted terms out of them
REWARD_KEYS = ("timestamp_ns", *(f"raw_{k}" for k in TERMS),
               *(f"weighted_{k}" for k in TERMS), "total")
WEIGHTED = slice(len(TERMS), 2 * len(TERMS))

# per-frame shape of each array field of RewardInput
_SHAPES = {"v_world": (3,), "v_body_xy": (2,), "omega": (3,), "gravity_body": (3,),
           "joint_acc": (12,), "action": (12,), "prev_action": (12,),
           "prev_prev_action": (12,), "hip_angles": (4,), "hip_angles_desired": (4,),
           "foot_positions": (4, 3), "foot_contact_forces": (4, 3), "command": (3,)}
_SCALARS = ("v_z", "yaw", "body_height", "desired_height")


def _sum_sq(x: np.ndarray) -> np.ndarray:
    # (x ** 2).sum(axis=-1) without the wrappers of ** and sum, bit for bit;
    # its root is np.linalg.norm(x, axis=-1)
    return np.add.reduce(x * x, axis=-1)


@dataclass(frozen=True, eq=False)
class RewardInput:
    """One policy-rate frame of everything the reward table reads, or n
    frames stacked on a leading axis of every field but terrain_type."""

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
        lead = np.shape(self.v_world)[:-1]  # () for one frame, (n,) for n
        for name, shape in _SHAPES.items():
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != lead + shape:
                raise ValueError(f"{name} must have shape {lead + shape}")
            object.__setattr__(self, name, a)
        for name in _SCALARS:
            if getattr(getattr(self, name), "shape", ()) != lead:
                raise ValueError(f"{name} must have shape {lead}")
        if (abs(np.sqrt(_sum_sq(self.gravity_body)) - 1.0) > 1e-6).any():
            raise ValueError("gravity_body must be unit-norm")

    def _all_values(self) -> np.ndarray:
        return np.concatenate([*(getattr(self, name) for name in _SHAPES),
                               np.array([getattr(self, name) for name in _SCALARS])],
                              axis=None)


def feet_stumble_penalty(foot_contact_forces, ratio: float = 2.0):
    """Count feet whose horizontal force dominates the vertical one, the
    signature of a toe catching an obstacle face. Forces are (4, 3) for one
    frame or (..., 4, 3); flags and counts keep the leading axes."""
    f = np.asarray(foot_contact_forces, dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("non-finite contact forces")
    flags = np.sqrt(_sum_sq(f[..., :2])) > ratio * np.abs(f[..., 2])
    return flags, np.add.reduce(flags, axis=-1, dtype=float)


def feet_edge_penalty(foot_positions, foot_contact_forces, hf: Heightfield,
                      edge_margin: float = 0.05, grad_threshold: float = 0.5,
                      contact_force_min: float = 1.0):
    """Count contacting feet within edge_margin of a sharp height jump.
    Feet are (4, 3) for one frame or (..., 4, 3); flags and counts keep the
    leading axes."""
    pos = np.asarray(foot_positions, dtype=float)
    if not np.all(np.isfinite(pos)):
        raise ValueError("non-finite foot positions")
    forces = np.asarray(foot_contact_forces, dtype=float)
    in_contact = np.abs(forces[..., 2]) >= contact_force_min
    ex, ey = hf.edge_xy(grad_threshold)
    flags = np.zeros(pos.shape[:-1], dtype=bool)
    # a cell within the margin is within it along x, and ex ascends, so a
    # foot is checked only against the cells in its x-window; the window is
    # wider than the margin by more than any rounding of the squares below
    x, y = pos[..., 0].ravel(), pos[..., 1].ravel()
    reach = abs(edge_margin) * (1.0 + 1e-9) + 1e-6
    lo = np.searchsorted(ex, x - reach)
    hi = np.searchsorted(ex, x + reach, side="right")
    flat = flags.reshape(-1)
    for k in np.flatnonzero(in_contact.ravel() & (hi > lo)):
        d2 = (ex[lo[k]:hi[k]] - x[k]) ** 2 + (ey[lo[k]:hi[k]] - y[k]) ** 2
        flat[k] = np.min(d2) <= edge_margin**2
    return flags, flags.sum(axis=-1, dtype=float)


_GAP_PLATFORM = (TerrainType.GAP, TerrainType.HIGH_PLATFORM)


def _pow2(x: np.ndarray) -> np.ndarray:
    # pow(x, 2) per element, the value of a scalar x ** 2; array ** 2 is
    # x * x, which differs in the last bit on ~0.1% of inputs, and the
    # golden logs pin pow
    return np.float_power(x, 2)


@dataclass(frozen=True, eq=False)
class RewardTable:
    """The reward table of n frames before their plane fits are known.

    raw[i] holds frame i's raw value of every term, in TERMS order, with
    t_l_tracking and roll, the two terms that read the plane fit, at 0;
    compute_rewards sets them from frame i and a fit. The other fields
    are the terrain-gated weight of each term and what those two terms read
    of each frame.
    """

    raw: np.ndarray  # (n, len(TERMS))
    weights: tuple[float, ...]  # in TERMS order
    v_world: np.ndarray  # (n, 3)
    gravity_x: np.ndarray  # (n,)
    v_cmd_x: np.ndarray  # (n,)
    terrain_type: TerrainType


def reward_table(inp: RewardInput, weights: RewardWeights | None = None,
                 terrain: Heightfield | None = None) -> RewardTable:
    """Every term that does not read the plane fit, for each frame of inp.

    Rows gated to other terrain types contribute raw 0. The feet-edge term
    needs ground truth geometry; without a terrain it reads 0.
    """
    w = weights or RewardWeights()
    if not np.isfinite(inp._all_values()).all():
        raise ValueError("non-finite reward input")
    n = math.prod(np.shape(inp.v_world)[:-1])

    def col(name, *shape):
        return np.asarray(getattr(inp, name)).reshape(n, *shape)

    tau = inp.terrain_type
    platform = tau is TerrainType.HIGH_PLATFORM
    cmd, v_body, omega = col("command", 3), col("v_body_xy", 2), col("omega", 3)
    action, prev = col("action", 12), col("prev_action", 12)
    raw = dict.fromkeys(TERMS, np.zeros(n))
    if not platform:
        err = _pow2(cmd[:, 0] - v_body[:, 0]) + _pow2(cmd[:, 1] - v_body[:, 1])
        raw["l_tracking"] = 2.0 * elementwise(math.exp, -4.0 * err)
        raw["v_z"] = -_pow2(col("v_z"))
    else:
        raw["yaw"] = -_pow2(col("yaw"))
    raw["a_tracking"] = 0.5 * elementwise(math.exp, -4.0 * _pow2(cmd[:, 2] - omega[:, 2]))
    raw["omega_x"] = -_pow2(omega[:, 0])
    raw["joint_acc"] = -_sum_sq(col("joint_acc", 12))
    raw["body_height"] = -_pow2(col("desired_height") - col("body_height"))
    raw["action_rate"] = -_sum_sq(action - prev)
    raw["smoothness"] = -_sum_sq(action - 2.0 * prev + col("prev_prev_action", 12))
    raw["hip_angle"] = -_sum_sq(col("hip_angles_desired", 4) - col("hip_angles", 4))
    if tau in _GAP_PLATFORM:
        forces = col("foot_contact_forces", 4, 3)
        if terrain is not None:
            _, raw["feet_edge"] = feet_edge_penalty(
                col("foot_positions", 4, 3), forces, terrain,
                w.edge_margin, w.grad_threshold, w.contact_force_min)
        _, raw["feet_stumble"] = feet_stumble_penalty(forces, w.stumble_ratio)

    feet = ((w.feet_edge_gap, w.feet_stumble_gap) if tau is TerrainType.GAP
            else (w.feet_edge_platform, w.feet_stumble_platform) if platform else (0.0, 0.0))
    raw = np.concatenate([raw[k] for k in TERMS]).reshape(len(TERMS), n).T
    return RewardTable(raw=raw, weights=(*(getattr(w, k) for k in TERMS[:-2]), *feet),
                       v_world=col("v_world", 3), gravity_x=col("gravity_body", 3)[:, 0],
                       v_cmd_x=cmd[:, 0], terrain_type=tau)


def compute_rewards(table: RewardTable, i: int, fit: PlaneFit) -> list[float]:
    """Every term of frame i of the table, which carries the weights and
    terrain it was built with: the values of REWARD_KEYS[1:], raw terms,
    weighted terms, then their sum. Only t_l_tracking and roll read the fit.
    """
    raw = table.raw[i].tolist()
    if table.terrain_type is TerrainType.HIGH_PLATFORM:
        n_v = guided_direction(fit)
        raw[_T_L] = float(min(np.dot(table.v_world[i], n_v), table.v_cmd_x[i]))
    # x-components by the book, oddity and all
    raw[_ROLL] = float(-abs(table.gravity_x[i] - fit.normal[0]) ** 2)
    weighted = [v * w for v, w in zip(raw, table.weights)]
    return [*raw, *weighted, sum(weighted)]
