"""Shared 3D primitives: quaternions, poses, small rotation helpers.

Conventions, fixed repo-wide:
    - Quaternions are scalar-first (w, x, y, z), composed with the Hamilton
      product, and represent body-to-world orientation:
      v_world = rotate_vec(q, v_body).
    - Vectors are length-3 float64 numpy arrays; matrices are 3x3 row-major.
    - Timestamps are integer nanoseconds so millisecond-scale delay
      injection stays exact.
    - q and -q describe the same orientation; compare with orientation_angle,
      never with field equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81  # m/s^2, world gravity magnitude


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=np.float64)


def as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def elementwise(f, *arrays: np.ndarray) -> np.ndarray:
    """f, a function of floats such as math.sin, mapped over 1-D arrays:
    numpy's sin, cos, exp and atan2 can differ from math's in the last bit
    on some CPUs or inputs, and the golden logs pin math's values."""
    return np.array(list(map(f, *(a.tolist() for a in arrays))), dtype=np.float64)


def skew(v) -> np.ndarray:
    """3x3 cross-product matrix: skew(a) @ b == cross(a, b)."""
    x, y, z = as_vec3(v).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)


IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Pose:
    """SE(3) state: world position (m), body-to-world orientation, time (ns)."""

    position: np.ndarray
    orientation: Quaternion
    timestamp_ns: int

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "timestamp_ns", int(self.timestamp_ns))


def quat_normalize(q: Quaternion) -> Quaternion:
    """Scale q to unit norm, preserving direction."""
    n = q.norm()
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("degenerate quaternion")
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def quat_conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a * b (apply b first, then a, in body-to-world use)."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def quat_from_rotvec(rv) -> Quaternion:
    """Exact exponential map: rotation vector (axis * angle, rad) to quaternion."""
    rv = as_vec3(rv)
    return quat_exp(*rv.tolist(), norm3(rv))


def norm3(v: np.ndarray) -> float:
    """np.linalg.norm of a float 3-vector, bit for bit: the root of the same
    dot product (a sum of squares in Python floats can differ from it)."""
    return math.sqrt(v.dot(v))


def quat_exp(x: float, y: float, z: float, angle: float) -> Quaternion:
    """quat_from_rotvec of the rotation vector (x, y, z) whose norm is angle."""
    if angle < 1e-12:
        # first-order expansion; renormalized so the norm contract still holds
        return quat_normalize(Quaternion(1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    half = 0.5 * angle
    s = math.sin(half)
    return Quaternion(math.cos(half), x / angle * s, y / angle * s, z / angle * s)


def quat_log(q: Quaternion) -> np.ndarray:
    """Inverse of quat_from_rotvec: rotation vector of a unit quaternion."""
    qn = quat_normalize(q)
    v = np.array([qn.x, qn.y, qn.z])
    sv = float(np.linalg.norm(v))
    # atan2 keeps precision for angles near 0 and near pi
    angle = 2.0 * math.atan2(sv, qn.w)
    if angle > math.pi:
        angle -= 2.0 * math.pi
    if sv < 1e-12:
        return 2.0 * v * np.sign(qn.w if qn.w != 0.0 else 1.0)
    return v / sv * angle


def rotate_vec(q: Quaternion, v) -> np.ndarray:
    """Rotate body-frame v into the world frame by unit quaternion q."""
    v = as_vec3(v)
    if not np.isfinite(v).all():
        raise ValueError("non-finite vector")
    return rotate_vecs(np.array([[q.w, q.x, q.y, q.z]]), v[None])[0]


def rotate_vecs(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rotate_vec row by row: (n, 4) quaternions (w, x, y, z) rotate (n, 3)
    vectors."""
    w, x, y, z = q.T
    vx, vy, vz = v.T
    # v + w t + u x t with t = 2 u x v, u = (x, y, z): np.cross's own
    # per-component products (multiply, then subtract), so each row is
    # bit-equal to the cross-product formula
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.stack([vx + w * tx + (y * tz - z * ty),
                     vy + w * ty + (z * tx - x * tz),
                     vz + w * tz + (x * ty - y * tx)], axis=1)


def _matrix(w, x, y, z) -> list:
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def quat_to_matrix(q: Quaternion) -> np.ndarray:
    """Body-to-world rotation matrix of unit quaternion q."""
    return np.array(_matrix(q.w, q.x, q.y, q.z))


def quat_to_matrices(q: np.ndarray) -> np.ndarray:
    """(n, 3, 3) C-ordered quat_to_matrix of each (w, x, y, z) row of q."""
    return np.ascontiguousarray(np.moveaxis(np.array(_matrix(*q.T)), -1, 0))


def quat_from_yaw(yaw: float) -> Quaternion:
    half = 0.5 * yaw
    return Quaternion(math.cos(half), 0.0, 0.0, math.sin(half))


def _yaw_args(w, x, y, z):
    return 2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z)


def quat_yaw(q: Quaternion) -> float:
    """Yaw (rad) of the body x axis projected to the world x-y plane."""
    return math.atan2(*_yaw_args(q.w, q.x, q.y, q.z))


def quat_yaws(q: np.ndarray) -> np.ndarray:
    """quat_yaw of each (w, x, y, z) row of q."""
    return elementwise(math.atan2, *_yaw_args(*q.T))


def orientation_angle(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle (rad) between two orientations; sign-of-q agnostic."""
    an, bn = quat_normalize(a), quat_normalize(b)
    d = abs(an.w * bn.w + an.x * bn.x + an.y * bn.y + an.z * bn.z)
    return 2.0 * math.acos(min(1.0, d))

