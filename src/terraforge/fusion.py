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

The 200 Hz step is taken a run at a time: the IMU samples delivered
between two other events, about 20 between two 10 Hz fixes. The biases
change only in an update, so they hold over a run (the interval that IMU
preintegration works over) and predicted states share them. Every value is
bit-equal to that of a step per sample:
- the orientation chain is stepped by the quat_* functions on (w, x, y, z)
  tuples of Python floats, which give numpy's IEEE results element by
  element at a fraction of the call cost;
- the run's rotation matrices, rotated forces, rotation-vector norms
  (geometry.norm3's root of a dot product) and F blocks are taken at once,
  elementwise in numpy and by stacked products, which make the same BLAS
  call per sample as a single product (a product written out in floats
  differs in the last bit, as BLAS fuses multiply-adds);
- velocities and positions are cumulative sums of the same addends in the
  same order;
- the covariance is transported sample by sample.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

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
    quat_steps,
    quat_to_matrices,
    skew,
    vec3,
)
from .sensors import Delivered, ImuSample, merge_delivered, pop_runs

log = logging.getLogger(__name__)

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
        # the filter squares each value (P, Q, R): a square that overflows
        # or is subnormal makes it overflow or its matrices singular
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)
                    and sys.float_info.min <= value * value < math.inf):
                raise ValueError(f"{name} must be finite and positive with a finite "
                                 f"normal square, got {value!r}")

    def initial_covariance(self) -> np.ndarray:
        stds = (self.init_pos_std, self.init_vel_std, self.init_att_std,
                self.init_gyro_bias_std, self.init_accel_bias_std)
        return np.diag(np.repeat([s**2 for s in stds], 3))


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
    return FusionState(odom.position.copy(), np.zeros(3), quat_normalize(odom.orientation),
                       _read_only(np.zeros(3)), _read_only(np.zeros(3)),
                       cfg.initial_covariance(), odom.timestamp_ns)


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


class NonFiniteSample(ValueError):
    """An IMU sample's body rate or specific force is not finite; index is
    its place in the run."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def predict(state: FusionState, samples: Sequence[ImuSample],
            cfg: FusionConfig) -> tuple[FusionState, np.ndarray]:
    """Strapdown propagation of the nominal state plus covariance transport
    through a run of one or more IMU samples, each from the one before it.
    Returns the state at the last sample and each sample's pose row: its
    position, then its quaternion (w, x, y, z).

    Every input is checked before any product: a sample with a non-finite
    body rate or specific force raises NonFiniteSample. Each value is
    bit-equal to that of a step per sample (see the module docstring)."""
    n = len(samples)
    times = [state.timestamp_ns, *(s.timestamp_ns for s in samples)]
    dts = [(b - a) * 1e-9 for a, b in zip(times, times[1:])]
    for d in dts:
        if d <= 0:
            raise ValueError("time regression")
        if d > MAX_IMU_GAP_S:
            raise ValueError(f"imu gap {d * 1e3:.1f} ms exceeds {MAX_IMU_GAP_S * 1e3:.0f} ms")
    dt = np.array(dts)[:, None]

    rv = (np.array([s.angular_velocity for s in samples]) - state.gyro_bias) * dt
    f_body = np.array([s.linear_acceleration for s in samples]) - state.accel_bias
    # dt is positive and finite, so rv is finite iff the body rate is;
    # both are checked before the rotation, which would warn on inf * 0
    bad_rate = ~np.isfinite(rv).all(axis=1)
    bad = np.flatnonzero(bad_rate | ~np.isfinite(f_body).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteSample("non-finite angular velocity" if bad_rate[i]
                              else "non-finite specific force", i)

    # exact exponential of each body rate, composed on the body side
    quats, dqs = quat_steps(state.orientation, rv)
    # each sample's rotation before its step, then the rotation of its step
    rot, rot_dq = np.split(quat_to_matrices(np.vstack([quats[:-1], dqs])), 2)
    a_world = (rot @ f_body[:, :, None])[:, :, 0] + _GRAVITY_WORLD

    # v' = v + a dt and p' = (p + v dt) + 0.5 a dt dt, summed in that order
    vel = np.cumsum(np.vstack([state.velocity, a_world * dt]), axis=0)
    steps = np.empty((2 * n + 1, 3))
    steps[0] = state.position
    steps[1::2] = vel[:-1] * dt
    steps[2::2] = 0.5 * a_world * dt * dt
    pos = np.cumsum(steps, axis=0)[::2]

    block_dt = dt[:, :, None]  # one per 3x3 block
    F = _EYE15[None].repeat(n, axis=0)
    F[:, _POS, _VEL] = np.eye(3) * block_dt
    F[:, _VEL, _ATT] = -rot @ skew(f_body) * block_dt
    F[:, _ATT, _BG] = -np.eye(3) * block_dt
    F[:, _VEL, _BA] = -rot * block_dt
    F[:, _ATT, _ATT] = rot_dq.transpose(0, 2, 1)
    Q = {d: _process_noise(cfg, d) for d in set(dts)}
    P = state.covariance
    for Fk, d in zip(F, dts):
        P = Fk @ P @ Fk.T + Q[d]
        P = 0.5 * (P + P.T)
    # predict never changes the biases, so the states share them
    end = FusionState(pos[-1], vel[-1], Quaternion(*quats[-1].tolist()), state.gyro_bias,
                      state.accel_bias, P, times[-1])
    return end, np.hstack([pos[1:], quats[1:]])


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
    return FusionState(state.position + dx[_POS], state.velocity + dx[_VEL], new_q,
                       _read_only(state.gyro_bias + dx[_BG]),
                       _read_only(state.accel_bias + dx[_BA]), P_new, state.timestamp_ns)


@dataclass
class FusionStats:
    predicts: int = 0
    updates: int = 0
    rejected_stale: int = 0
    skipped_imu: int = 0
    reseeds: int = 0


@dataclass(frozen=True, eq=False)
class PoseRun(Sequence):
    """The poses handle_imu returns for a run of IMU samples, one per
    sample, as rows: Poses are built only on indexing."""

    timestamps_ns: list[int]
    rows: np.ndarray  # (samples, 7): position, then quaternion (w, x, y, z)

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    def __getitem__(self, i: int) -> Pose:
        row = self.rows[i]
        return Pose(row[:3], Quaternion(*row[3:].tolist()), self.timestamps_ns[i])


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

    def handle_imu(self, samples: Sequence[ImuSample]) -> PoseRun | None:
        """Predict through a run of IMU samples, those delivered between two
        other events, and return their poses, one per sample; None for a
        run before the first fix, whose samples all count in skipped_imu.

        A sample at the state's own time (the one that arrives with the
        fix that seeded the filter) gets the state's pose as it is. Samples
        that go back in time, or that lie more than MAX_IMU_GAP_S past the
        state (the IMU stream stalled, or the fix that seeded the filter
        was older than the stream), are passed through unchanged: they get
        the pose the filter holds, until a fix re-seeds it (see
        handle_odometry), and count in skipped_imu.

        Poses, state and stats are those of handling the samples one at a
        time. A sample with a non-finite body rate or specific force raises
        ValueError, with no numpy warning; the state and stats are then
        those of the samples before it."""
        state = self.state
        if state is None:
            self.stats.skipped_imu += len(samples)
            return None
        # the samples to predict and their places in the run, and per sample
        # how many of them its pose has seen
        todo, at, seen, skipped = [], [], [], 0
        t = state.timestamp_ns
        for i, s in enumerate(samples):
            if s.timestamp_ns != t:
                if 0 <= (s.timestamp_ns - t) * 1e-9 <= MAX_IMU_GAP_S:
                    todo.append(s)
                    at.append(i)
                    t = s.timestamp_ns
                else:
                    skipped += 1
            seen.append(len(todo))
        rows = np.empty((0, 7))
        if todo:
            try:
                self.state, rows = predict(state, todo, self.cfg)
            except NonFiniteSample as e:
                # leave the state and stats as the samples before it leave them
                self.handle_imu(samples[:at[e.index]])
                raise
        self.stats.predicts += len(todo)
        self.stats.skipped_imu += skipped
        rows = np.vstack([(*state.position.tolist(), *state.orientation), rows])
        times = [state.timestamp_ns, *(s.timestamp_ns for s in todo)]
        return PoseRun([times[k] for k in seen], rows[seen])

    def handle_odometry(self, odom: Pose) -> bool:
        """Apply a pose measurement; returns False if rejected as stale.

        A measurement far ahead of the state means the IMU stream stalled;
        the filter re-seeds from the fix instead of failing, which degrades
        to hold-last-pose behavior until IMU data resumes. A rejection and a
        re-seed each log one DEBUG line.
        """
        if self.state is None:
            self.initialize(odom)
            self.stats.updates += 1
            return True
        try:
            self.state = update_pose(self.state, odom, self.cfg)
        except StaleMeasurement:
            self.stats.rejected_stale += 1
            log.debug("rejected stale odometry fix at %d ns", odom.timestamp_ns)
            return False
        except MeasurementAhead:
            self.initialize(odom)
            self.stats.reseeds += 1
            log.debug("re-seeded the filter from the odometry fix at %d ns", odom.timestamp_ns)
            return True
        self.stats.updates += 1
        return True


def run_fusion(
    imu_samples: Sequence[ImuSample | Delivered],
    odom_poses: Sequence[Pose | Delivered],
    cfg: FusionConfig | None = None,
    fuser: PoseFuser | None = None,
) -> list[Pose]:
    """Replay both streams in delivery order; one output pose per IMU sample
    delivered after the first fix. Samples delivered before it return no
    pose and count in skipped_imu.

    Streams must be individually time-sorted. Elements may be wrapped in
    Delivered to model transport delay; event order follows delivery times
    while filter math uses the embedded timestamps. Pass a PoseFuser to
    inspect stats (rejections, skips) afterwards.
    """
    fuser = fuser or PoseFuser(cfg)
    out: list[Pose] = []
    # odometry first on delivery-time ties so the filter seeds before predicting
    for _, kind, item in pop_runs(merge_delivered(odom_poses, imu_samples), 1):
        if kind == 0:
            fuser.handle_odometry(item)
        elif (poses := fuser.handle_imu(item)) is not None:
            out.extend(poses)
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
