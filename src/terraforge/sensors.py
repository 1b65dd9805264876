"""Synthetic IMU, low-rate pose odometry, and LiDAR scans from analytic
trajectories over a heightfield.

Trajectories have closed-form derivatives, so every stream is exact in the
noise-free case and all randomness is seed-deterministic. true_states
evaluates each kind's closed form once, over arrays, at integer-ns times;
the IMU and odometry streams, the LiDAR poses and the policy-tick table all
read it, and true_state is its one-row view. The accelerometer model
reports specific force in the body frame: a_meas = R^T (a_world + g_up)
with g_up = (0, 0, 9.81), i.e. (0, 0, 9.81) at rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .geometry import (
    GRAVITY,
    Pose,
    Quaternion,
    elementwise,
    quat_from_yaw,
    quat_multiply,
    quat_to_matrices,
    quat_to_matrix,
    vec3,
)
from .terrain import Heightfield, clamped_height, sample_height_vec


class TrajectoryKind(Enum):
    STATIC = "static"
    CONSTANT_VELOCITY = "constant_velocity"
    CIRCLE = "circle"
    SINUSOID = "sinusoid"


MIN_CIRCLE_RADIUS = 0.1  # m
MAX_SINUSOID_AMPLITUDE = 10.0  # m
MAX_SINUSOID_ACCEL = 100.0 * GRAVITY  # m/s^2, peak vertical a (2 pi f)^2
# m, |body height| and |desired height|; keeps the body-height reward's
# square of their difference finite
MAX_BODY_HEIGHT = 1000.0


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
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not 0.0 <= self.speed <= 3.0:
            raise ValueError("speed outside [0, 3] m/s")
        if not abs(self.height_above_ground) <= MAX_BODY_HEIGHT:
            raise ValueError(f"|height_above_ground| must be <= {MAX_BODY_HEIGHT:g} m")
        # a tighter circle turns faster than 30 rad/s at 3 m/s; radii near
        # 1e-40 m overflow the map index and 1e-293 m the streams
        if self.kind is TrajectoryKind.CIRCLE and not self.radius >= MIN_CIRCLE_RADIUS:
            raise ValueError(f"circle radius must be at least {MIN_CIRCLE_RADIUS} m")
        if self.kind is TrajectoryKind.SINUSOID:
            # unbounded, a (2 pi f)^2 overflows and the IMU reads NaN
            if not 0.0 <= self.frequency < math.inf:
                raise ValueError("sinusoid frequency must be finite and >= 0 Hz")
            if not abs(self.amplitude) <= MAX_SINUSOID_AMPLITUDE:
                raise ValueError(f"sinusoid |amplitude| must be <= {MAX_SINUSOID_AMPLITUDE:g} m")
            wf = 2.0 * math.pi * self.frequency
            if not abs(self.amplitude) * wf * wf <= MAX_SINUSOID_ACCEL:
                raise ValueError("sinusoid peak vertical acceleration a (2 pi f)^2 exceeds "
                                 f"{MAX_SINUSOID_ACCEL:g} m/s^2")


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
        lo, hi = self.map_noise_magnitude
        if hi < lo:
            raise ValueError(f"map_noise_magnitude ({lo}, {hi}) is reversed: hi < lo")
        if not math.isfinite(hi - lo):  # no uniform draw spans it
            raise ValueError(f"map_noise_magnitude ({lo}, {hi}): hi - lo must be finite")
        if not 0.0 <= self.system_delay_ms <= 15.0:
            raise ValueError("system_delay_ms outside [0, 15]")


# a scan holds about 2 kB per active ray at once (its window of up to 64
# samples), and a ray may take all max_range / ray_step steps; the default
# pattern is 2048 rays of 1200 steps
MAX_RAYS_PER_SCAN = 10**5
MAX_STEPS_PER_RAY = 10**5


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
        if self.n_azimuth * self.n_elevation > MAX_RAYS_PER_SCAN:
            raise ValueError(f"n_azimuth * n_elevation must be at most {MAX_RAYS_PER_SCAN} rays")
        if not self.max_range / self.ray_step <= MAX_STEPS_PER_RAY:
            raise ValueError(f"max_range / ray_step must be at most {MAX_STEPS_PER_RAY} steps")

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


@dataclass(frozen=True, eq=False)
class TrueStates:
    """The kinematic state at n times, one row per time."""

    times_ns: np.ndarray  # (n,) int64
    position: np.ndarray  # (n, 3) world, m
    velocity: np.ndarray  # (n, 3) world, m/s
    angular_velocity: np.ndarray  # (n, 3) body, rad/s
    acceleration: np.ndarray  # (n, 3) world, m/s^2
    # (n, 4) body-to-world (w, x, y, z), yaw only; int64 (1, 0, 0, 0) rows
    # for a trajectory that never turns, so its poses keep an int quaternion
    orientation: np.ndarray

    def poses(self) -> list[Pose]:
        return [Pose(p, Quaternion(*q), ts) for p, q, ts in
                zip(self.position, self.orientation.tolist(), self.times_ns.tolist())]


def true_states(traj: TrajectorySpec, times_ns) -> TrueStates:
    """Closed-form kinematic state at each time, given in integer ns in
    [0, round(duration * 1e9)]. Each element is computed as the scalar
    formula at t = ts * 1e-9 s would be, with math's sin and cos."""
    ts = np.asarray(times_ns, dtype=np.int64).reshape(-1)
    bad = ts[(ts < 0) | (ts > round(traj.duration * 1e9))]
    if bad.size:
        raise ValueError(f"t {bad[0] * 1e-9} outside [0, {traj.duration}]")
    n, t, h = ts.size, ts * 1e-9, traj.height_above_ground
    vel = omega = acc = (0.0, 0.0, 0.0)  # columns: scalars or (n,) arrays
    quat = (1, 0, 0, 0)  # int, see TrueStates.orientation
    k = traj.kind
    if k is TrajectoryKind.STATIC:
        pos = (0.0, 0.0, h)
    elif k is TrajectoryKind.CONSTANT_VELOCITY:
        v = traj.speed
        pos, vel = (v * t, 0.0, h), (v, 0.0, 0.0)
    elif k is TrajectoryKind.CIRCLE:
        v, r = traj.speed, traj.radius
        w = v / r
        th = w * t
        sin, cos = elementwise(math.sin, th), elementwise(math.cos, th)
        pos = (r * sin, r * (1.0 - cos), h)
        vel = (v * cos, v * sin, 0.0)
        acc = (-v * w * sin, v * w * cos, 0.0)  # |acc| = v^2/r
        omega = (0.0, 0.0, w)
        half = 0.5 * th  # quat_from_yaw(th)
        quat = (elementwise(math.cos, half), 0.0, 0.0, elementwise(math.sin, half))
    else:  # SINUSOID
        v, a, f = traj.speed, traj.amplitude, traj.frequency
        wf = 2.0 * math.pi * f
        sin, cos = elementwise(math.sin, wf * t), elementwise(math.cos, wf * t)
        pos, vel = (v * t, 0.0, h + a * sin), (v, 0.0, a * wf * cos)
        acc = (0.0, 0.0, -a * wf * wf * sin)
    return TrueStates(ts, *(np.column_stack([np.broadcast_to(c, n) for c in cols])
                            for cols in (pos, vel, omega, acc, quat)))


def true_state(traj: TrajectorySpec, t: float) -> TrueState:
    """Closed-form kinematic state at time t (s): true_states at t rounded
    to the ns, as one TrueState."""
    if not math.isfinite(t):
        raise ValueError(f"t {t} outside [0, {traj.duration}]")
    s = true_states(traj, [round(t * 1e9)])
    return TrueState(s.poses()[0], s.velocity[0], s.angular_velocity[0], s.acceleration[0])


def sample_times_ns(duration: float, rate: float) -> list[int]:
    """Times (ns) of a stream sampled at rate Hz from 0 to duration, counted
    in integer ns (2.3 s * 200 Hz is 459.99999999999994 in floats)."""
    end = round(duration * 1e9)
    times = [round(i * 1e9 / rate) for i in range(int(duration * rate) + 2)]
    return [t for t in times if t <= end]


def _noise_rows(rng: np.random.Generator, n: int,
                *streams: tuple[float, int]) -> list[np.ndarray | None]:
    """Zero-mean Gaussian noise for n samples of streams drawn in turn at
    each sample, given as (std, size); a stream whose std is 0 draws nothing
    and gets None. One standard_normal draw for all of them: 0 + std * z is
    what rng.normal(0, std, size) computes, so the numbers are those of
    per-sample draws."""
    z = rng.standard_normal((n, sum(size for std, size in streams if std > 0)))
    out, col = [], 0
    for std, size in streams:
        if std > 0:
            out.append(0.0 + std * z[:, col:col + size])
            col += size
        else:
            out.append(None)
    return out


def imu_stream(traj: TrajectorySpec, rate: float = 200.0,
               noise: NoiseConfig | None = None, seed: int = 0) -> list[ImuSample]:
    """Body-frame gyro and specific-force samples at exact 1/rate spacing."""
    if not 100 <= rate <= 1000:
        raise ValueError("imu rate outside [100, 1000] Hz")
    noise = noise or NoiseConfig()
    times = sample_times_ns(traj.duration, rate)
    gyro, accel_noise = _noise_rows(np.random.default_rng(seed), len(times),
                                    (noise.gyro_std, 3), (noise.accel_std, 3))
    s = true_states(traj, times)
    rot_wb = quat_to_matrices(s.orientation).swapaxes(1, 2)  # world -> body
    accel = (rot_wb @ (s.acceleration + vec3(0, 0, GRAVITY))[:, :, None])[:, :, 0]
    omega = s.angular_velocity
    if gyro is not None:
        omega = omega + gyro
    if accel_noise is not None:
        accel = accel + accel_noise
    return [ImuSample(ts, w, a) for ts, w, a in zip(times, omega, accel)]


def odometry_stream(traj: TrajectorySpec, rate: float = 10.0,
                    noise: NoiseConfig | None = None, seed: int = 0) -> list[Pose]:
    """True poses at 1/rate spacing with Gaussian position / yaw perturbation."""
    if rate < 1:
        raise ValueError("odometry rate must be >= 1 Hz")
    noise = noise or NoiseConfig()
    times = sample_times_ns(traj.duration, rate)
    pos_noise, yaw_noise = _noise_rows(np.random.default_rng(seed), len(times),
                                       (noise.odom_pos_std, 3), (noise.odom_yaw_std, 1))
    s = true_states(traj, times)
    pos = s.position if pos_noise is None else s.position + pos_noise
    quats = [Quaternion(*q) for q in s.orientation.tolist()]
    if yaw_noise is not None:
        quats = [quat_multiply(quat_from_yaw(dyaw), q)
                 for dyaw, q in zip(yaw_noise[:, 0].tolist(), quats)]
    return [Pose(p, q, ts) for p, q, ts in zip(pos, quats, times)]


# the rays of one of this many heading bins share a height profile
PROFILE_BINS = 256


def _profile_starts(hf: Heightfield, origin: np.ndarray, dirs: np.ndarray,
                    t_stop: np.ndarray) -> np.ndarray:
    """Per ray, a t before which no sample is at or below the surface, from
    vertical ray coherence (Cohen-Or, Rich, Lerner & Shenkar 1996).

    The rays of one heading bin form a group, which shares the polyline that
    _polylines bounds the surface with, out to the group's reach. A ray that
    descends tau per m along the ground clears vertex k, s_k along the
    ground with bound b_k, iff tau > (b_k - z0) / s_k; clearing vertices 0
    to k, it is above every chord up to s_k. It starts where it meets the
    chord into the first vertex it does not clear."""
    oz = origin[2]
    dx, dy, dz = dirs.T
    a = np.sqrt(dx * dx + dy * dy)
    phi = np.arctan2(dy, dx)
    bins = ((phi + np.pi) * (PROFILE_BINS / (2 * np.pi))).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    bins, phi, a, dz, t_stop = (v[order] for v in (bins, phi, a, dz, t_stop))
    new = np.empty(bins.size, bool)
    new[0] = True
    np.not_equal(bins[1:], bins[:-1], out=new[1:])
    first, group = np.flatnonzero(new), np.cumsum(new) - 1
    mid = 0.5 * (np.minimum.reduceat(phi, first) + np.maximum.reduceat(phi, first))
    with np.errstate(divide="ignore", invalid="ignore"):
        # clipped for the search below; a rising ray is never below z0
        tau = np.where(dz < 0, np.maximum(dz / a, -1e6), 0.0)
        # a profile reaches its rays' t_stop or, if they all descend, where
        # the shallowest is 1 mm under every node, so that no vertex after
        # lets it through
        shallowest = np.maximum.reduceat(tau, first)
        depth = np.where(shallowest < 0, (oz - hf.heights.min() + 1e-3) / -shallowest, np.inf)
    reach = np.maximum(np.minimum(np.maximum.reduceat(t_stop * a, first), depth), 0.0)
    spread = np.maximum.reduceat(np.abs(phi - mid[group]), first)
    size, s, b = _polylines(hf, origin, mid, spread, reach)
    off = np.cumsum(size) - size

    # C_k, the running max of (b_k - z0) / s_k: a ray clears vertices 0 to
    # k iff tau > C_k. One search per ray finds the first k with C_k >=
    # tau, over keys g * 2^24 + C_k with C clipped to [-1e6, 0] like tau:
    # float addition is monotone, so a vertex that a ray does not clear
    # never sorts below it, and a tie in rounding only stops the ray sooner
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.where(b < oz, np.maximum((b - oz) / s, -1e6), 0.0)
        keys = np.maximum.accumulate(q + np.repeat(np.arange(first.size), size) * 2.0**24)
        m = np.searchsorted(keys, tau + group * 2.0**24)
        k = m - off[group]
        lo = np.maximum(m - 1, off[group])  # the last vertex cleared, or the sensor
        hi = np.minimum(lo + 1, s.size - 1)
        s_lo, s_hi, b_lo, b_hi = s[lo], s[hi], b[lo], b[hi]
        # into the chord from lo to hi, where the ray's clearance e falls to 0
        e_lo, e_hi = oz + tau * s_lo - b_lo, oz + tau * s_hi - b_hi
        frac = np.where(e_lo > 0, np.where(e_lo > e_hi, e_lo / (e_lo - e_hi), 1.0), 0.0)
        t = np.where(a > 0, (s_lo + frac.clip(0, 1) * (s_hi - s_lo)) / a, np.inf)
        # a ray steeper than the clip, stopped at the sensor: down to the
        # higher of the first two bounds, or to the second vertex
        steep = np.maximum(np.fmin((np.maximum(b_lo, b_hi) - oz) / dz, s_hi / a), 0.0)
    # a ray that clears the end vertex has passed its t_stop
    t = np.where(k == 0, np.where(b_lo < oz, steep, 0.0), np.where(k < size[group], t, np.inf))
    starts = np.empty_like(t)
    starts[order] = t
    return starts


def _polylines(hf: Heightfield, origin: np.ndarray, mid: np.ndarray, spread: np.ndarray,
               reach: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each group of rays whose headings lie within spread of mid, a
    polyline over the ground along mid out to reach (m) that no ray's
    ground, at the same distance from the sensor, lies above.

    Its vertices are the sensor, the points where the line crosses a grid
    line of hf.line_bounds, in turn as in Amanatides & Woo's (1987) cell
    walk, and its end. Vertex k, s_k along the ground, is bounded by its
    height plus 1e-5 m, the bend of the cells beside it, and lip * spread *
    s_k: a ray whose heading differs by dphi is within dphi * s of the line.
    Returns each group's vertex count, then every vertex's s and bound,
    group after group."""
    lip, twist, lines = hf.line_bounds
    u = np.stack([np.cos(mid), np.sin(mid)])
    # the bend per unit of twist: a piece of line inside one cell is at
    # most res / max(|ux|, |uy|) long
    bend = np.abs(u[0] * u[1]) / (4 * np.maximum(u[0] * u[0], u[1] * u[1]))

    # in grid coordinates: each line's crossings of the grid lines after
    # the sensor and up to its end, nearest first
    g0 = (origin[:2] - hf.origin) / hf.resolution
    g_end = g0[:, None] + reach / hf.resolution * u
    n_groups = mid.size
    rep, sigma, g = [np.empty(0, np.int64)], [np.empty(0)], [np.empty((2, 0))]
    for axis, grid in enumerate(lines):
        if not grid.size:
            continue
        ahead = u[axis] > 0
        past = np.searchsorted(grid, g0[axis], "right")
        before = np.searchsorted(grid, g0[axis], "left")
        count = np.where(ahead, np.searchsorted(grid, g_end[axis], "right") - past,
                         before - np.searchsorted(grid, g_end[axis], "left"))
        r = np.repeat(np.arange(n_groups), count)
        k = np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
        line = grid[np.where(ahead, past, before - 1)[r] + np.where(ahead, 1, -1)[r] * k]
        sig = (line - g0[axis]) / u[axis, r]
        # g_end is rounded: a line nearly parallel to the heading can be
        # counted and yet crossed past the reach
        keep = sig * hf.resolution <= reach[r]
        r, line, sig = r[keep], line[keep], sig[keep]
        gl = g0[:, None] + sig * u[:, r]
        gl[axis] = line  # exactly on it, for the nodes beside it
        rep.append(r), sigma.append(sig), g.append(gl)
    rep, sigma, g = np.concatenate(rep), np.concatenate(sigma), np.concatenate(g, axis=1)
    if lines[0].size and lines[1].size:
        merged = np.lexsort((sigma, rep))
        rep, sigma, g = rep[merged], sigma[merged], g[:, merged]

    # every group's vertices in turn: the sensor, the crossings, the end
    size = np.bincount(rep, minlength=n_groups) + 2
    off = np.cumsum(size) - size
    ends = np.concatenate([off, off + size - 1])
    at = np.arange(rep.size) + 2 * rep + 1
    s, gv = np.empty(size.sum()), np.empty((2, size.sum()))
    s[ends] = np.concatenate([np.zeros(n_groups), reach])
    gv[:, ends] = np.concatenate([np.repeat(g0[:, None], n_groups, axis=1), g_end], axis=1)
    s[at], gv[:, at] = sigma * hf.resolution, g
    nx, ny = hf.heights.shape
    node = np.clip(gv, 0, [[nx - 1], [ny - 1]]).astype(np.int64)  # the floor: cells beside it
    gid = np.repeat(np.arange(n_groups), size)
    b = (clamped_height(hf, gv[0], gv[1]) + 1e-5 + lip * spread[gid] * s
         + twist.ravel().take(node[0] * ny + node[1]) * bend[gid])
    return size, s, b


def _march_bounds(hf: Heightfield, origin: np.ndarray, dirs: np.ndarray,
                  step: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the first and the last step index to sample (see lidar_scan):
    one step before it meets its heading's polyline (_profile_starts) or
    enters the tile, whichever is later, and one step past its tile exit."""
    # a ray enters the tile box at the later of its two axis entries and
    # leaves it at the nearer of its two exits (Kay & Kajiya's slabs); one
    # that keeps the sensor's x (or y) never meets it if that is off it.
    # Samples round to floats, so an edge is passed half the float gap
    # beyond it. last: one step past the exit, sparing one for rounding
    o, c0, c1 = origin[:2, None], hf.origin[:, None], hf.far_corner[:, None]
    lo = c0 - o - 0.5 * (c0 - np.nextafter(c0, -np.inf))
    hi = c1 - o + 0.5 * (np.nextafter(c1, np.inf) - c1)
    parallel = np.where((o >= c0) & (o <= c1), np.inf, -np.inf)
    dxy = dirs[:, :2].T.copy()  # rows x and y: numpy is slow along a length-2 axis
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_enter = np.where(dxy > 0, lo / dxy, np.where(dxy < 0, hi / dxy, -parallel)).max(axis=0)
        t_exit = np.where(dxy > 0, hi / dxy, np.where(dxy < 0, lo / dxy, parallel)).min(axis=0)
        last = np.floor(np.clip(t_exit / step, 0, n_steps - 1)).astype(np.int64)
    t_stop = (last + 2) * step  # past the last sample

    # start: sampled at floor(t / step) * step <= t, off the tile or above
    # the surface; t past t_stop is not sampled, so it is capped there
    t = np.maximum(_profile_starts(hf, origin, dirs, t_stop), t_enter).clip(max=t_stop)
    start = np.where(t < t_stop, np.floor(t / step) - 1, n_steps)
    return np.maximum(start, 0).astype(np.int64), last


def lidar_scan(hf: Heightfield, pose: Pose, pattern: ScanPattern | None = None,
               noise: NoiseConfig | None = None, seed: int = 0) -> LidarScan:
    """Ray-cast a scan pattern against the heightfield from the given pose.

    A ray is sampled at t = (k+1)*ray_step; its first on-tile sample at or
    below the surface is refined by linear interpolation from the sample
    before it, so noise-free hits sit on the surface to within one step.
    The rays that share a world heading share one height profile (vertical
    ray coherence): a polyline along their line out from the sensor, with a
    vertex where the line crosses a grid line across which the surface bends,
    bounded there by the height, the bend of the cells beside it and how far
    the group's rays stray from the line. Between two vertices the surface
    under every ray lies below the chord of their bounds. Each ray skips,
    without sampling, its way down to where it meets the first chord it
    does not stay above: no skipped sample is at or below the surface.
    Sampling starts one step before that point, or before the tile entry if
    later, so the sample a hit interpolates from is always taken, in
    windows of 2 steps doubling up to 64. It ends at max_range or one step
    past the tile exit. Entry and exit are found in closed form; a ray that
    misses the tile is not sampled.
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
    width = 2
    while active.size:
        ks = pos[:, None] + np.arange(width)
        ts = (ks + 1) * step
        d = dirs[active]
        surf, ok = sample_height_vec(hf, (origin[0] + ts * d[:, :1]).ravel(),
                                     (origin[1] + ts * d[:, 1:2]).ravel())
        f = (origin[2] + ts * d[:, 2:]) - surf.reshape(ts.shape)  # > 0 above surface
        below = ok.reshape(ts.shape) & (f <= 0.0) & (ks <= last[:, None])
        first = below.argmax(axis=1)
        rows = np.arange(active.size)
        crossed = below[rows, first]
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


def pop_runs(events: list, kind: int) -> Iterator[tuple[int, int, object]]:
    """Take merge_delivered's events out of the list one by one, in order,
    and yield them, each stretch of consecutive `kind` events as one event:
    (delivery time of its first, kind, [its payloads]). The list keeps the
    events not yet taken, in reverse order."""
    events.reverse()
    while events:
        t, k, item = events.pop()
        if k == kind:
            item = [item]
            while events and events[-1][1] == kind:
                item.append(events.pop()[2])
        yield t, k, item
