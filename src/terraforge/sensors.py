"""Synthetic IMU, low-rate pose odometry, and LiDAR scans from analytic
trajectories over a heightfield.

Trajectories have closed-form derivatives, so every stream is exact in the
noise-free case and all randomness is seed-deterministic. The accelerometer
model reports specific force in the body frame: a_meas = R^T (a_world + g_up)
with g_up = (0, 0, 9.81), i.e. (0, 0, 9.81) at rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import (
    GRAVITY,
    Pose,
    Quaternion,
    quat_from_yaw,
    quat_multiply,
    quat_to_matrix,
    vec3,
)
from .terrain import BLOCK_CELLS, Heightfield, grid_coords, sample_height_vec


class TrajectoryKind(Enum):
    STATIC = "static"
    CONSTANT_VELOCITY = "constant_velocity"
    CIRCLE = "circle"
    SINUSOID = "sinusoid"


@dataclass(frozen=True)
class TrajectorySpec:
    kind: TrajectoryKind
    duration: float  # s
    height_above_ground: float = 0.4  # m, nominal body height
    speed: float = 0.0  # m/s, forward speed (constant_velocity, circle, sinusoid)
    radius: float = 1.0  # m (circle)
    amplitude: float = 0.0  # m, vertical oscillation (sinusoid)
    frequency: float = 1.0  # Hz (sinusoid)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.speed <= 3.0:
            raise ValueError("speed outside [0, 3] m/s")
        if self.kind is TrajectoryKind.CIRCLE and self.radius <= 0:
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True, eq=False)
class TrueState:
    pose: Pose
    velocity: np.ndarray  # world, m/s
    angular_velocity: np.ndarray  # body, rad/s
    acceleration: np.ndarray  # world, m/s^2


@dataclass(frozen=True, eq=False)
class ImuSample:
    timestamp_ns: int
    angular_velocity: np.ndarray  # body, rad/s
    linear_acceleration: np.ndarray  # body specific force, m/s^2


@dataclass(frozen=True, eq=False)
class LidarScan:
    timestamp_ns: int
    points: np.ndarray  # (n, 3) sensor frame, m


@dataclass(frozen=True)
class NoiseConfig:
    gyro_std: float = 0.0  # rad/s
    accel_std: float = 0.0  # m/s^2
    odom_pos_std: float = 0.0  # m per axis
    odom_yaw_std: float = 0.0  # rad
    lidar_range_std: float = 0.0  # m along the ray
    map_noise_ratio: float = 0.0  # fraction of local-map cells perturbed
    map_noise_magnitude: tuple[float, float] = (-1.0, 2.0)  # m
    system_delay_ms: float = 0.0  # applied to a stream via apply_delay

    def __post_init__(self):
        for name in ("gyro_std", "accel_std", "odom_pos_std", "odom_yaw_std", "lidar_range_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.map_noise_ratio <= 0.1:
            raise ValueError("map_noise_ratio outside [0, 0.1]")
        if not 0.0 <= self.system_delay_ms <= 15.0:
            raise ValueError("system_delay_ms outside [0, 15]")


@dataclass(frozen=True)
class ScanPattern:
    """Downward-looking cone: full azimuth sweep, elevations below horizon."""

    n_azimuth: int = 64
    n_elevation: int = 32
    elevation_min: float = math.radians(-90.0)  # rad, straight down
    elevation_max: float = math.radians(-10.0)
    max_range: float = 12.0  # m
    ray_step: float = 0.01  # m, march step and hit tolerance

    def __post_init__(self):
        if self.n_azimuth < 1 or self.n_elevation < 1:
            raise ValueError("n_azimuth and n_elevation must be >= 1")
        if self.max_range <= 0 or self.ray_step <= 0:
            raise ValueError("max_range and ray_step must be positive")

    @cached_property
    def ray_directions(self) -> np.ndarray:
        """(n_azimuth * n_elevation, 3) read-only unit ray directions in the
        sensor frame, azimuth-major; computed once per pattern."""
        az = np.linspace(-math.pi, math.pi, self.n_azimuth, endpoint=False)
        el = np.linspace(self.elevation_min, self.elevation_max, self.n_elevation)
        azg, elg = np.meshgrid(az, el, indexing="ij")
        ce = np.cos(elg)
        dirs = np.stack([ce * np.cos(azg), ce * np.sin(azg), np.sin(elg)], axis=-1).reshape(-1, 3)
        dirs.flags.writeable = False
        return dirs


class SensorUnderground(ValueError):
    """The LiDAR origin is at or below the terrain under it."""


@dataclass(frozen=True, eq=False)
class Delivered:
    """Stream element tagged with its delivery time (timestamps untouched)."""

    delivery_ns: int
    item: object


def true_state(traj: TrajectorySpec, t: float) -> TrueState:
    """Closed-form kinematic state at time t in [0, duration]."""
    if not 0.0 <= t <= traj.duration:
        raise ValueError(f"t {t} outside [0, {traj.duration}]")
    h = traj.height_above_ground
    ts = round(t * 1e9)
    k = traj.kind
    if k is TrajectoryKind.STATIC:
        pose = Pose(vec3(0, 0, h), Quaternion(1, 0, 0, 0), ts)
        return TrueState(pose, np.zeros(3), np.zeros(3), np.zeros(3))
    if k is TrajectoryKind.CONSTANT_VELOCITY:
        v = traj.speed
        pose = Pose(vec3(v * t, 0, h), Quaternion(1, 0, 0, 0), ts)
        return TrueState(pose, vec3(v, 0, 0), np.zeros(3), np.zeros(3))
    if k is TrajectoryKind.CIRCLE:
        v, r = traj.speed, traj.radius
        w = v / r
        th = w * t
        pos = vec3(r * math.sin(th), r * (1.0 - math.cos(th)), h)
        vel = vec3(v * math.cos(th), v * math.sin(th), 0.0)
        acc = vec3(-v * w * math.sin(th), v * w * math.cos(th), 0.0)  # |acc| = v^2/r
        pose = Pose(pos, quat_from_yaw(th), ts)
        return TrueState(pose, vel, vec3(0, 0, w), acc)
    if k is TrajectoryKind.SINUSOID:
        v, a, f = traj.speed, traj.amplitude, traj.frequency
        wf = 2.0 * math.pi * f
        pos = vec3(v * t, 0.0, h + a * math.sin(wf * t))
        vel = vec3(v, 0.0, a * wf * math.cos(wf * t))
        acc = vec3(0.0, 0.0, -a * wf * wf * math.sin(wf * t))
        pose = Pose(pos, Quaternion(1, 0, 0, 0), ts)
        return TrueState(pose, vel, np.zeros(3), acc)
    raise ValueError(f"unhandled trajectory kind {k}")


def _sample_times_ns(duration: float, rate: float) -> list[int]:
    n = int(math.floor(duration * rate)) + 1
    return [round(i * 1e9 / rate) for i in range(n)]


def imu_stream(traj: TrajectorySpec, rate: float = 200.0,
               noise: NoiseConfig | None = None, seed: int = 0) -> list[ImuSample]:
    """Body-frame gyro and specific-force samples at exact 1/rate spacing."""
    if not 100 <= rate <= 1000:
        raise ValueError("imu rate outside [100, 1000] Hz")
    noise = noise or NoiseConfig()
    rng = np.random.default_rng(seed)
    g_up = vec3(0, 0, GRAVITY)
    out = []
    for ts in _sample_times_ns(traj.duration, rate):
        s = true_state(traj, ts * 1e-9)
        rot_wb = quat_to_matrix(s.pose.orientation).T  # world -> body
        accel = rot_wb @ (s.acceleration + g_up)
        omega = s.angular_velocity.copy()
        if noise.gyro_std > 0:
            omega = omega + rng.normal(0.0, noise.gyro_std, 3)
        if noise.accel_std > 0:
            accel = accel + rng.normal(0.0, noise.accel_std, 3)
        out.append(ImuSample(ts, omega, accel))
    return out


def odometry_stream(traj: TrajectorySpec, rate: float = 10.0,
                    noise: NoiseConfig | None = None, seed: int = 0) -> list[Pose]:
    """True poses at 1/rate spacing with Gaussian position / yaw perturbation."""
    if rate < 1:
        raise ValueError("odometry rate must be >= 1 Hz")
    noise = noise or NoiseConfig()
    rng = np.random.default_rng(seed)
    out = []
    for ts in _sample_times_ns(traj.duration, rate):
        s = true_state(traj, ts * 1e-9)
        pos = s.pose.position
        q = s.pose.orientation
        if noise.odom_pos_std > 0:
            pos = pos + rng.normal(0.0, noise.odom_pos_std, 3)
        if noise.odom_yaw_std > 0:
            q = quat_multiply(quat_from_yaw(rng.normal(0.0, noise.odom_yaw_std)), q)
        out.append(Pose(pos, q, ts))
    return out


def _march_bounds(hf: Heightfield, origin: np.ndarray, dirs: np.ndarray,
                  step: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the first and the last step index to sample (see lidar_scan)."""
    ends = np.append(np.arange(63, n_steps - 1, 64), n_steps - 1)  # chunk ends
    te = (ends + 1) * step
    _, _, ok = grid_coords(hf, origin[0] + te * dirs[:, :1], origin[1] + te * dirs[:, 1:2])
    ok[:, -1] = False  # a ray whose chunk ends all stay on the tile ends at the last step
    last = ends[(~ok).argmax(axis=1)]
    t_stop = (last + 2) * step  # past the last sample

    # t: where the ray comes down to the tile top, then past each block whose
    # max it clears, then, in the first block it does not clear, down to that
    # block's max; block_max has a one-cell rim, so rounding cannot put a
    # sample outside the block it was checked against, and every sample
    # skipped is above the surface
    above = origin[2] - (hf.heights.max() + 1e-5)
    b0 = (origin[:2] - hf.origin) / (BLOCK_CELLS * hf.resolution)  # in blocks
    db = dirs[:, :2] / (BLOCK_CELLS * hf.resolution)
    top_block = np.array(hf.block_max.shape) - 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.where(above <= 0, 0.0, np.where(dirs[:, 2] < 0, above / -dirs[:, 2], np.inf))
        idx = np.flatnonzero(t < t_stop)
        while idx.size:
            ti, d = t[idx], db[idx]
            p = b0 + (ti[:, None] + 1e-7) * d  # just past t: the block being entered
            block = np.where(d < 0, np.ceil(p) - 1, np.floor(p))
            t_out = np.where(d != 0, (np.where(d > 0, block + 1, block) - b0) / d, np.inf)
            t_out = np.maximum(t_out.min(axis=1), ti + 1e-9)
            i, j = np.clip(block, 0, top_block).astype(np.int64).T  # off the tile: edge block
            top = hf.block_max[i, j] + 1e-5
            dz = dirs[idx, 2]
            clear = origin[2] + np.minimum(dz, 0.0) * t_out > top
            down = np.where(dz < 0, np.maximum(ti, (origin[2] - top) / -dz), ti)
            t[idx] = np.where(clear, t_out, down)
            idx = idx[clear & (t_out < t_stop[idx])]
        start = np.where(t < t_stop, np.floor(t / step) - 3, n_steps)
    return np.maximum(start, 0).astype(np.int64), last


def lidar_scan(hf: Heightfield, pose: Pose, pattern: ScanPattern | None = None,
               noise: NoiseConfig | None = None, seed: int = 0) -> LidarScan:
    """Ray-cast a scan pattern against the heightfield from the given pose.

    A ray is sampled at t = (k+1)*ray_step; its first on-tile sample at or
    below the surface is refined by linear interpolation from the sample
    before it, so noise-free hits sit on the surface to within one step.
    Each ray skips, without sampling, the blocks of hf.block_max whose max it
    clears and, in the first block it does not clear, its descent down to
    that block's max: no skipped sample is at or below the surface. Sampling
    starts three steps before that point, so the sample that a hit
    interpolates from is always taken. It runs in windows of 4 steps,
    doubling up to 64; most hits fall about three steps in, inside the first
    window. A ray is dropped after max_range, or at the end of the first
    64-step chunk from t = 0 whose last sample is off the tile, even if it
    re-enters later.
    """
    pattern = pattern or ScanPattern()
    noise = noise or NoiseConfig()
    origin = pose.position
    ground, on_tile = sample_height_vec(hf, origin[:1], origin[1:2])
    if on_tile[0] and origin[2] <= ground[0]:
        raise SensorUnderground(f"sensor underground: z {origin[2]:.3f} m at or "
                                f"below the ground at {ground[0]:.3f} m")

    rot = quat_to_matrix(pose.orientation)
    dirs_body = pattern.ray_directions
    dirs = dirs_body @ rot.T  # world-frame ray directions

    step = pattern.ray_step
    n_steps = int(pattern.max_range / step)
    hit_t = np.full(dirs.shape[0], np.nan)
    start, last = _march_bounds(hf, origin, dirs, step, n_steps)
    active = np.flatnonzero(start <= last)
    pos, last = start[active], last[active]
    prev_f = np.full(active.size, np.nan)  # signed clearance at the previous step
    width = 4
    while active.size:
        ks = pos[:, None] + np.arange(width)
        ts = (ks + 1) * step
        d = dirs[active]
        surf, ok = sample_height_vec(hf, (origin[0] + ts * d[:, :1]).ravel(),
                                     (origin[1] + ts * d[:, 1:2]).ravel())
        f = (origin[2] + ts * d[:, 2:]) - surf.reshape(ts.shape)  # > 0 above surface
        below = ok.reshape(ts.shape) & (f <= 0.0) & (ks <= last[:, None])
        crossed = below.any(axis=1)
        first = below.argmax(axis=1)
        rows = np.arange(active.size)
        # linear interpolation between the last clear step and the crossing step
        f_hit = f[rows, first]
        t_hit = ts[rows, first]
        f_prev = np.where(first > 0, f[rows, np.maximum(first - 1, 0)], prev_f)
        t_prev = t_hit - step
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(np.isfinite(f_prev) & (f_prev > 0), f_prev / (f_prev - f_hit), 1.0)
        t_star = t_prev + np.clip(frac, 0.0, 1.0) * step
        hit_t[active[crossed]] = t_star[crossed]
        going = ~crossed & (ks[:, -1] < last)
        active, pos, last = active[going], pos[going] + width, last[going]
        prev_f = f[going, -1]
        width = min(2 * width, 64)

    mask = np.isfinite(hit_t)
    ranges = hit_t[mask]
    if noise.lidar_range_std > 0:
        rng = np.random.default_rng(seed)
        ranges = ranges + rng.normal(0.0, noise.lidar_range_std, ranges.size)
    points = dirs_body[mask] * ranges[:, None]
    return LidarScan(pose.timestamp_ns, points)


def scan_points_world(scan: LidarScan, pose: Pose) -> np.ndarray:
    """Transform sensor-frame scan points into the world frame."""
    rot = quat_to_matrix(pose.orientation)
    return scan.points @ rot.T + pose.position[None, :]


def apply_delay(stream: Sequence, delay_ms: float) -> list[Delivered]:
    """Shift delivery times by a fixed transport delay; timestamps unchanged."""
    if not 0.0 <= delay_ms <= 15.0:
        raise ValueError("delay outside [0, 15] ms")
    shift = round(delay_ms * 1e6)
    return [Delivered(item.timestamp_ns + shift, item) for item in stream]


def merge_delivered(*streams: Sequence) -> list[tuple[int, int, object]]:
    """(delivery time, stream index, payload) for every element of the
    streams, in delivery order; ties go to the lower stream index, then keep
    stream order. The time is a Delivered element's delivery_ns, else the
    element's timestamp_ns; a Delivered element is unwrapped."""
    events = [(e.delivery_ns, kind, e.item) if isinstance(e, Delivered)
              else (e.timestamp_ns, kind, e)
              for kind, stream in enumerate(streams) for e in stream]
    events.sort(key=lambda e: e[:2])
    return events
