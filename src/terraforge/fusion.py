"""Error-state Kalman filter fusing 10 Hz pose odometry with 200 Hz IMU
into a 200 Hz pose stream.

The nominal state is (position, velocity, quaternion, gyro bias, accel
bias); the filter linearizes a 15-dimensional error state around it:

    [0:3]  dp    position error (m)
    [3:6]  dv    velocity error (m/s)
    [6:9]  dth   attitude error (rad, body-side small angle)
    [9:12] dbg   gyro bias error (rad/s)
    [12:15] dba  accel bias error (m/s^2)

Attitude error is defined on the body side, q_true = q_nom * exp(dth), so
the quaternion stays unit-norm by construction and the orientation residual
is the log of the relative rotation. Measurements arriving out of order are
rejected beyond a 50 ms staleness window rather than re-integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    GRAVITY,
    Pose,
    Quaternion,
    quat_conjugate,
    quat_from_rotvec,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    skew,
    vec3,
)
from .sensors import Delivered, ImuSample, merge_delivered

MAX_IMU_GAP_S = 0.050
MAX_MEASUREMENT_AGE_S = 0.050

_POS = slice(0, 3)
_VEL = slice(3, 6)
_ATT = slice(6, 9)
_BG = slice(9, 12)
_BA = slice(12, 15)


@dataclass(frozen=True)
class FusionConfig:
    """Noise densities and initial covariance scales. Values are typical
    MEMS / LiDAR-odometry magnitudes, not calibrated claims."""

    gyro_noise: float = 1e-3  # rad/s/sqrt(Hz)
    accel_noise: float = 1e-2  # m/s^2/sqrt(Hz)
    gyro_bias_walk: float = 1e-5  # rad/s/sqrt(s)
    accel_bias_walk: float = 1e-4  # m/s^2/sqrt(s)
    odom_pos_std: float = 0.01  # m
    odom_rot_std: float = math.radians(0.5)  # rad
    init_pos_std: float = 0.1  # m
    init_vel_std: float = 0.5  # m/s
    init_att_std: float = math.radians(5.0)  # rad
    init_gyro_bias_std: float = 0.01  # rad/s
    init_accel_bias_std: float = 0.1  # m/s^2

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def initial_covariance(self) -> np.ndarray:
        d = np.concatenate(
            [
                np.full(3, self.init_pos_std**2),
                np.full(3, self.init_vel_std**2),
                np.full(3, self.init_att_std**2),
                np.full(3, self.init_gyro_bias_std**2),
                np.full(3, self.init_accel_bias_std**2),
            ]
        )
        return np.diag(d)


@dataclass(frozen=True, eq=False)
class FusionState:
    position: np.ndarray  # m, world
    velocity: np.ndarray  # m/s, world
    orientation: Quaternion  # body to world
    gyro_bias: np.ndarray  # rad/s
    accel_bias: np.ndarray  # m/s^2
    covariance: np.ndarray  # 15x15
    timestamp_ns: int

    def pose(self) -> Pose:
        return Pose(self.position, self.orientation, self.timestamp_ns)


def initial_state(odom: Pose, cfg: FusionConfig) -> FusionState:
    """Seed the filter from the first odometry pose; biases start at zero."""
    return FusionState(
        position=odom.position.copy(),
        velocity=np.zeros(3),
        orientation=quat_normalize(odom.orientation),
        gyro_bias=np.zeros(3),
        accel_bias=np.zeros(3),
        covariance=cfg.initial_covariance(),
        timestamp_ns=odom.timestamp_ns,
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_GRAVITY_WORLD = _read_only(vec3(0, 0, -GRAVITY))
_EYE15 = _read_only(np.eye(15))
# odometry measures position and attitude directly
_H = np.zeros((6, 15))
_H[0:3, _POS] = np.eye(3)
_H[3:6, _ATT] = np.eye(3)
_read_only(_H)


@lru_cache(maxsize=64)
def _transition_base(dt: float) -> np.ndarray:
    """The blocks of F that depend on dt alone; predict fills in the rest."""
    F = np.eye(15)
    F[_POS, _VEL] = np.eye(3) * dt
    F[_ATT, _BG] = -np.eye(3) * dt
    return _read_only(F)


@lru_cache(maxsize=64)
def _process_noise(cfg: FusionConfig, dt: float) -> np.ndarray:
    Q = np.zeros((15, 15))
    Q[_VEL, _VEL] = np.eye(3) * cfg.accel_noise**2 * dt
    Q[_ATT, _ATT] = np.eye(3) * cfg.gyro_noise**2 * dt
    Q[_BG, _BG] = np.eye(3) * cfg.gyro_bias_walk**2 * dt
    Q[_BA, _BA] = np.eye(3) * cfg.accel_bias_walk**2 * dt
    return _read_only(Q)


@lru_cache(maxsize=8)
def _odometry_noise(cfg: FusionConfig) -> np.ndarray:
    return _read_only(np.diag(
        [cfg.odom_pos_std**2] * 3 + [cfg.odom_rot_std**2] * 3
    ))


def predict(state: FusionState, imu: ImuSample, cfg: FusionConfig) -> FusionState:
    """Strapdown propagation of the nominal state plus covariance transport.

    F's dt-only blocks and Q are built once per dt (and config), so a step
    builds only the blocks that depend on the state."""
    dt = (imu.timestamp_ns - state.timestamp_ns) * 1e-9
    if dt <= 0:
        raise ValueError("time regression")
    if dt > MAX_IMU_GAP_S:
        raise ValueError(f"imu gap {dt * 1e3:.1f} ms exceeds {MAX_IMU_GAP_S * 1e3:.0f} ms")

    omega = imu.angular_velocity - state.gyro_bias
    if not np.isfinite(omega).all():
        raise ValueError("non-finite angular velocity")
    f_body = imu.linear_acceleration - state.accel_bias
    rot = quat_to_matrix(state.orientation)
    a_world = rot @ f_body + _GRAVITY_WORLD

    # exact exponential of the body rate, composed on the body side
    dq = quat_from_rotvec(omega * dt)
    new_q = quat_normalize(quat_multiply(state.orientation, dq))
    new_p = state.position + state.velocity * dt + 0.5 * a_world * dt * dt
    new_v = state.velocity + a_world * dt

    F = _transition_base(dt).copy()
    F[_VEL, _ATT] = -rot @ skew(f_body) * dt
    F[_VEL, _BA] = -rot * dt
    F[_ATT, _ATT] = quat_to_matrix(dq).T

    P = F @ state.covariance @ F.T + _process_noise(cfg, dt)
    P = 0.5 * (P + P.T)
    return FusionState(new_p, new_v, new_q, state.gyro_bias.copy(),
                       state.accel_bias.copy(), P, imu.timestamp_ns)


class StaleMeasurement(ValueError):
    """The measurement is older than the state by more than the window."""


class MeasurementAhead(ValueError):
    """The measurement is newer than the state by more than the window."""


def update_pose(state: FusionState, odom: Pose, cfg: FusionConfig) -> FusionState:
    """EKF update on position and orientation (log of relative rotation)."""
    age = (state.timestamp_ns - odom.timestamp_ns) * 1e-9
    if age > MAX_MEASUREMENT_AGE_S:
        raise StaleMeasurement("stale measurement")
    if -age > MAX_MEASUREMENT_AGE_S:
        raise MeasurementAhead(f"measurement {-age * 1e3:.1f} ms ahead of state")

    y = np.empty(6)
    y[0:3] = odom.position - state.position
    y[3:6] = quat_log(quat_multiply(quat_conjugate(state.orientation), odom.orientation))

    H, R = _H, _odometry_noise(cfg)
    P = state.covariance
    S = H @ P @ H.T + R
    K = np.linalg.solve(S.T, (P @ H.T).T).T  # P H^T S^-1 without explicit inverse
    dx = K @ y
    IKH = _EYE15 - K @ H
    P_new = IKH @ P @ IKH.T + K @ R @ K.T  # Joseph form keeps P PSD
    P_new = 0.5 * (P_new + P_new.T)

    new_q = quat_normalize(
        quat_multiply(state.orientation, quat_from_rotvec(dx[_ATT]))
    )
    return FusionState(
        position=state.position + dx[_POS],
        velocity=state.velocity + dx[_VEL],
        orientation=new_q,
        gyro_bias=state.gyro_bias + dx[_BG],
        accel_bias=state.accel_bias + dx[_BA],
        covariance=P_new,
        timestamp_ns=state.timestamp_ns,
    )


@dataclass
class FusionStats:
    predicts: int = 0
    updates: int = 0
    rejected_stale: int = 0
    skipped_imu: int = 0
    reseeds: int = 0


class PoseFuser:
    """Sequential owner of the filter state; inputs must arrive time-ordered.

    Output poses are immutable values, safe to hand to other threads.
    """

    def __init__(self, cfg: FusionConfig | None = None):
        self.cfg = cfg or FusionConfig()
        self.state: FusionState | None = None
        self.stats = FusionStats()

    def initialize(self, odom: Pose) -> FusionState:
        self.state = initial_state(odom, self.cfg)
        return self.state

    def handle_imu(self, imu: ImuSample) -> Pose:
        """Predict to the IMU timestamp and return the propagated pose.

        Samples that do not advance time, or that lie more than
        MAX_IMU_GAP_S past the state (the IMU stream stalled, or the fix
        that seeded the filter was older than the stream), are passed
        through unchanged and counted in skipped_imu: the pose holds until
        a fix re-seeds the filter (see handle_odometry)."""
        if self.state is None:
            raise RuntimeError("fuser not initialized")
        dt = (imu.timestamp_ns - self.state.timestamp_ns) * 1e-9
        if dt <= 0 or dt > MAX_IMU_GAP_S:
            self.stats.skipped_imu += 1
            return self.state.pose()
        self.state = predict(self.state, imu, self.cfg)
        self.stats.predicts += 1
        return self.state.pose()

    def handle_odometry(self, odom: Pose) -> bool:
        """Apply a pose measurement; returns False if rejected as stale.

        A measurement far ahead of the state means the IMU stream stalled;
        the filter re-seeds from the fix instead of failing, which degrades
        to hold-last-pose behavior until IMU data resumes.
        """
        if self.state is None:
            self.initialize(odom)
            self.stats.updates += 1
            return True
        try:
            self.state = update_pose(self.state, odom, self.cfg)
        except StaleMeasurement:
            self.stats.rejected_stale += 1
            return False
        except MeasurementAhead:
            self.initialize(odom)
            self.stats.reseeds += 1
            return True
        self.stats.updates += 1
        return True


def run_fusion(
    imu_samples: Sequence[ImuSample | Delivered],
    odom_poses: Sequence[Pose | Delivered],
    cfg: FusionConfig | None = None,
    fuser: PoseFuser | None = None,
) -> list[Pose]:
    """Replay both streams in delivery order; one output pose per IMU sample.

    Streams must be individually time-sorted. Elements may be wrapped in
    Delivered to model transport delay; event order follows delivery times
    while filter math uses the embedded timestamps. Pass a PoseFuser to
    inspect stats (rejections, skips) afterwards.
    """
    fuser = fuser or PoseFuser(cfg)
    out: list[Pose] = []
    # odometry first on delivery-time ties so the filter seeds before predicting
    for _, kind, item in merge_delivered(odom_poses, imu_samples):
        if kind == 0:
            fuser.handle_odometry(item)
        elif fuser.state is None:
            fuser.stats.skipped_imu += 1
        else:
            out.append(fuser.handle_imu(item))
    return out


def zero_order_hold(odom_poses: Sequence[Pose | Delivered], times_ns: Iterable[int]) -> list[Pose]:
    """Hold the latest delivered pose at each query time; the low-rate
    baseline the 200 Hz fusion is compared against."""
    events = merge_delivered(odom_poses)
    out = []
    idx = -1
    for t in times_ns:
        while idx + 1 < len(events) and events[idx + 1][0] <= t:
            idx += 1
        if idx < 0:
            raise ValueError("query before first odometry delivery")
        held = events[idx][2]
        out.append(Pose(held.position, held.orientation, int(t)))
    return out
