"""Shared 3D primitives: quaternions, poses, small rotation helpers.

Conventions, fixed repo-wide:
    - Quaternions are scalar-first (w, x, y, z), composed with the Hamilton
      product, and represent body-to-world orientation:
      v_world = rotate_vec(q, v_body).
    - Vectors are length-3 float64 numpy arrays; matrices are 3x3 row-major.
    - Timestamps are integer nanoseconds so millisecond-scale delay
      injection stays exact.
    - A Quaternion is its (w, x, y, z) tuple, and every quat_* function
      takes any such sequence. q and -q describe the same orientation;
      compare with orientation_angle, never with ==.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """3x3 cross-product matrix: skew(a) @ b == cross(a, b); for an (n, 3)
    array, the (n, 3, 3) matrices of its rows."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {v.shape}")
    x, y, z = v.T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(v.shape + (3,))


class Quaternion(NamedTuple):
    w: float
    x: float
    y: float
    z: float


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
    w, x, y, z = q
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("degenerate quaternion")
    return Quaternion(w / n, x / n, y / n, z / n)


def quat_conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a * b (apply b first, then a, in body-to-world use)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return Quaternion(aw * bw - ax * bx - ay * by - az * bz,
                      aw * bx + ax * bw + ay * bz - az * by,
                      aw * by - ax * bz + ay * bw + az * bx,
                      aw * bz + ax * by - ay * bx + az * bw)


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
        return quat_normalize((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    half = 0.5 * angle
    s = math.sin(half)
    return Quaternion(math.cos(half), x / angle * s, y / angle * s, z / angle * s)


def quat_steps(q: Quaternion, rv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q composed on the body side with the exponential of each row of the
    (n, 3) rotation vectors rv in turn, each step
    quat_normalize(quat_multiply(q, quat_from_rotvec(r))). Returns
    the (n + 1, 4) rows (w, x, y, z) of q and of the orientation after each
    step, and the (n, 4) rows of each step."""
    # each angle is norm3's root of the same dot product
    angles = np.sqrt((rv[:, None, :] @ rv[:, :, None]).ravel())
    quats, steps = [q], []
    for (x, y, z), angle in zip(rv.tolist(), angles.tolist()):
        steps.append(quat_exp(x, y, z, angle))
        quats.append(quat_normalize(quat_multiply(quats[-1], steps[-1])))
    return np.array(quats), np.array(steps)


def quat_log(q: Quaternion) -> np.ndarray:
    """Inverse of quat_from_rotvec: rotation vector of a unit quaternion."""
    w, x, y, z = quat_normalize(q)
    v = np.array([x, y, z])
    sv = float(np.linalg.norm(v))
    # atan2 keeps precision for angles near 0 and near pi
    angle = 2.0 * math.atan2(sv, w)
    if angle > math.pi:
        angle -= 2.0 * math.pi
    if sv < 1e-12:
        return 2.0 * v * np.sign(w if w != 0.0 else 1.0)
    return v / sv * angle


def rotate_vec(q: Quaternion, v) -> np.ndarray:
    """Rotate body-frame v into the world frame by unit quaternion q."""
    v = as_vec3(v)
    if not np.isfinite(v).all():
        raise ValueError("non-finite vector")
    return rotate_vecs(np.array([q]), v[None])[0]


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
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    return [
        [1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)],
        [2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)],
        [2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)],
    ]


def quat_to_matrix(q: Quaternion) -> np.ndarray:
    """Body-to-world rotation matrix of unit quaternion q."""
    return np.array(_matrix(*q))


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
    return math.atan2(*_yaw_args(*q))


def quat_yaws(q: np.ndarray) -> np.ndarray:
    """quat_yaw of each (w, x, y, z) row of q."""
    return elementwise(math.atan2, *_yaw_args(*q.T))


def orientation_angle(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle (rad) between two orientations; sign-of-q agnostic.
    From the relative rotation's vector part, since acos of |<a, b>| reads
    0 for angles under about 2e-8 rad."""
    d = quat_multiply(quat_conjugate(quat_normalize(a)), quat_normalize(b))
    return 2.0 * math.atan2(math.hypot(d.x, d.y, d.z), abs(d.w))

