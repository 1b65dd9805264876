"""Shared 3D primitives: quaternions, poses, small rotation helpers.

Conventions, fixed repo-wide:
    - Quaternions are scalar-first (w, x, y, z), composed with the Hamilton
      product, and represent body-to-world orientation:
      v_world = rotate_vec(q, v_body).
    - Vectors are length-3 float64 numpy arrays; matrices are 3x3 row-major.
    - Timestamps are integer nanoseconds so millisecond-scale delay
      injection stays exact.
    - q and -q describe the same orientation; compare with same_orientation,
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


def skew(v) -> np.ndarray:
    """3x3 cross-product matrix: skew(a) @ b == cross(a, b)."""
    x, y, z = as_vec3(v)
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
    angle = float(np.linalg.norm(rv))
    if angle < 1e-12:
        # first-order expansion; renormalized so the norm contract still holds
        q = Quaternion(1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2])
        return quat_normalize(q)
    axis = rv / angle
    half = 0.5 * angle
    s = math.sin(half)
    return Quaternion(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


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


def quat_integrate(q: Quaternion, omega_body, dt: float) -> Quaternion:
    """Propagate orientation by body angular rate omega_body (rad/s) over dt (s).

    Uses the exact axis-angle exponential of omega*dt, so constant-rate
    integration is closed-form accurate. dt must lie in (0, 0.1] s.
    """
    omega_body = as_vec3(omega_body)
    if not (np.all(np.isfinite(omega_body)) and math.isfinite(dt)):
        raise ValueError("non-finite quaternion integration input")
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt {dt} outside (0, 0.1] s")
    dq = quat_from_rotvec(omega_body * dt)
    # body-frame rate: increment composes on the body side (right multiply)
    return quat_normalize(quat_multiply(q, dq))


def rotate_vec(q: Quaternion, v) -> np.ndarray:
    """Rotate body-frame v into the world frame by unit quaternion q."""
    vx, vy, vz = as_vec3(v).tolist()
    if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz)):
        raise ValueError("non-finite vector")
    # v + w t + u x t with t = 2 u x v, u = (x, y, z): np.cross's own
    # per-component products (multiply, then subtract) in Python floats,
    # so the result is bit-equal to the array formula at scalar cost
    w, x, y, z = q.w, q.x, q.y, q.z
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.array([vx + w * tx + (y * tz - z * ty),
                     vy + w * ty + (z * tx - x * tz),
                     vz + w * tz + (x * ty - y * tx)])


def quat_to_matrix(q: Quaternion) -> np.ndarray:
    """Body-to-world rotation matrix of unit quaternion q."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_yaw(yaw: float) -> Quaternion:
    half = 0.5 * yaw
    return Quaternion(math.cos(half), 0.0, 0.0, math.sin(half))


def quat_yaw(q: Quaternion) -> float:
    """Yaw (rad) of the body x axis projected to the world x-y plane."""
    siny = 2.0 * (q.w * q.z + q.x * q.y)
    cosy = 1.0 - 2.0 * (q.y * q.y + q.z * q.z)
    return math.atan2(siny, cosy)


def orientation_angle(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle (rad) between two orientations; sign-of-q agnostic."""
    an, bn = quat_normalize(a), quat_normalize(b)
    d = abs(an.w * bn.w + an.x * bn.x + an.y * bn.y + an.z * bn.z)
    return 2.0 * math.acos(min(1.0, d))


def same_orientation(a: Quaternion, b: Quaternion, tol: float = 1e-9) -> bool:
    """Orientation equality: q and -q compare equal."""
    return orientation_angle(a, b) <= tol
