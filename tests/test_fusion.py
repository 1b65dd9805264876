"""Error-state filter tests: propagation, update, full-run behavior."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terraforge.fusion import (
    FusionConfig,
    FusionState,
    MeasurementAhead,
    PoseFuser,
    StaleMeasurement,
    initial_state,
    predict,
    run_fusion,
    update_pose,
    zero_order_hold,
)
from terraforge.geometry import (
    GRAVITY,
    Pose,
    Quaternion,
    orientation_angle,
    quat_conjugate,
    quat_from_rotvec,
    quat_from_yaw,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    skew,
    vec3,
)
from terraforge.sensors import (
    Delivered,
    ImuSample,
    NoiseConfig,
    TrajectoryKind,
    TrajectorySpec,
    apply_delay,
    imu_stream,
    odometry_stream,
    true_state,
)

from reference_tick_layers import reference_quat_from_rotvec

CFG = FusionConfig()


def identity_pose(ts=0):
    return Pose(vec3(0, 0, 0), Quaternion(1, 0, 0, 0), ts)


def static_imu(ts):
    return ImuSample(ts, np.zeros(3), vec3(0, 0, GRAVITY))


def assert_cov_healthy(P, tol=1e-9):
    assert np.allclose(P, P.T, atol=tol)
    assert np.linalg.eigvalsh(P).min() >= -tol


class TestPredict:
    def test_static_gravity_cancels(self):
        st = initial_state(identity_pose(), CFG)
        st2, _ = predict(st, [static_imu(5_000_000)], CFG)
        assert np.allclose(st2.position, 0, atol=1e-12)
        assert np.allclose(st2.velocity, 0, atol=1e-12)
        assert orientation_angle(st2.orientation, st.orientation) < 1e-12
        assert np.trace(st2.covariance) > np.trace(st.covariance)

    def test_one_second_constant_velocity(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0, speed=1.0)
        st = initial_state(true_state(traj, 0.0).pose, CFG)
        # seed velocity with truth; this test isolates the propagation math
        st = type(st)(st.position, vec3(1, 0, 0), st.orientation, st.gyro_bias,
                      st.accel_bias, st.covariance, st.timestamp_ns)
        st, _ = predict(st, imu_stream(traj, 200.0)[1:], CFG)
        want = true_state(traj, 1.0).pose.position
        assert np.linalg.norm(st.position - want) < 1e-6

    def test_time_regression(self):
        st = initial_state(identity_pose(1_000_000), CFG)
        with pytest.raises(ValueError, match="time regression"):
            predict(st, [static_imu(1_000_000)], CFG)

    def test_gap_too_large(self):
        st = initial_state(identity_pose(), CFG)
        with pytest.raises(ValueError, match="gap"):
            predict(st, [static_imu(60_000_000)], CFG)

    def test_trace_never_decreases(self):
        st = initial_state(identity_pose(), CFG)
        for i in range(1, 50):
            st2, _ = predict(st, [static_imu(i * 5_000_000)], CFG)
            assert np.trace(st2.covariance) >= np.trace(st.covariance)
            assert_cov_healthy(st2.covariance)
            st = st2


class TestUpdatePose:
    def test_zero_innovation_keeps_state(self):
        st = initial_state(identity_pose(), CFG)
        st, _ = predict(st, [static_imu(5_000_000)], CFG)
        meas = identity_pose(5_000_000)
        st2 = update_pose(st, meas, CFG)
        assert np.allclose(st2.position, st.position, atol=1e-12)
        pos_var = np.diag(st2.covariance)[:3]
        assert np.all(pos_var < np.diag(st.covariance)[:3])

    def test_tight_measurement_pulls_position(self):
        st = initial_state(identity_pose(), CFG)
        st = type(st)(st.position + vec3(0.1, 0, 0), st.velocity, st.orientation,
                      st.gyro_bias, st.accel_bias, st.covariance, st.timestamp_ns)
        cfg = FusionConfig(odom_pos_std=1e-4)
        st2 = update_pose(st, identity_pose(0), cfg)
        assert abs(st2.position[0]) < 0.01

    def test_stale_rejected(self):
        st = initial_state(identity_pose(100_000_000), CFG)
        with pytest.raises(StaleMeasurement, match="stale measurement"):
            update_pose(st, identity_pose(40_000_000), CFG)

    def test_future_rejected(self):
        st = initial_state(identity_pose(0), CFG)
        with pytest.raises(MeasurementAhead, match="ahead"):
            update_pose(st, identity_pose(60_000_000), CFG)

    def test_orientation_residual_correction(self):
        st = initial_state(identity_pose(), CFG)
        meas = Pose(vec3(0, 0, 0), quat_from_yaw(0.05), 0)
        st2 = update_pose(st, meas, CFG)
        # posterior yaw moves toward the measured yaw
        assert 0 < orientation_angle(st2.orientation, st.orientation) < 0.05
        assert orientation_angle(st2.orientation, meas.orientation) < 0.05

    def test_joseph_form_keeps_psd(self):
        rng = np.random.default_rng(0)
        st = initial_state(identity_pose(), CFG)
        ts = 0
        for i in range(50):
            ts += 5_000_000
            st, _ = predict(st, [static_imu(ts)], CFG)
            if i % 5 == 0:
                noisy = Pose(rng.normal(0, 0.01, 3), quat_from_yaw(rng.normal(0, 0.01)), ts)
                st = update_pose(st, noisy, CFG)
            assert_cov_healthy(st.covariance)
            assert abs(math.hypot(*st.orientation) - 1.0) < 1e-9


class TestRunFusion:
    def test_empty_imu_empty_output(self):
        fuser = PoseFuser()
        poses = run_fusion([], odometry_stream(
            TrajectorySpec(TrajectoryKind.STATIC, 1.0), 10.0), fuser=fuser)
        assert poses == []
        # without IMU ticks the state never advances; each later fix re-seeds
        assert fuser.stats.reseeds == 10

    def test_static_outputs_near_identity(self):
        traj = TrajectorySpec(TrajectoryKind.STATIC, 2.0)
        out = run_fusion(imu_stream(traj, 200.0), odometry_stream(traj, 10.0))
        assert len(out) == len(imu_stream(traj, 200.0))
        for p in out:
            assert np.linalg.norm(p.position - [0, 0, 0.4]) < 1e-6

    def test_one_output_per_imu_sample(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 3.0, speed=0.5)
        imu = imu_stream(traj, 200.0)
        out = run_fusion(imu, odometry_stream(traj, 10.0))
        assert len(out) == len(imu)
        ts = [p.timestamp_ns for p in out]
        assert ts == sorted(ts)

    def test_samples_before_the_first_fix_return_no_pose(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0, speed=0.5)
        imu = imu_stream(traj, 200.0)
        fuser = PoseFuser()
        # the fix at 0 ns is delivered at 15 ms, after the samples at 0-10 ms
        out = run_fusion(imu, apply_delay(odometry_stream(traj, 10.0), 15.0), fuser=fuser)
        assert fuser.stats.skipped_imu == 3
        assert len(out) == len(imu) - 3
        assert out[0].timestamp_ns == 15_000_000

    def test_deterministic(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 2.0, speed=1.0)
        noise = NoiseConfig(odom_pos_std=0.01)
        a = run_fusion(imu_stream(traj, 200.0), odometry_stream(traj, 10.0, noise, seed=1))
        b = run_fusion(imu_stream(traj, 200.0), odometry_stream(traj, 10.0, noise, seed=1))
        assert all(np.array_equal(x.position, y.position) for x, y in zip(a, b))

    def test_beats_zero_order_hold(self):
        # noise-free IMU scenarios: fused max error under the ZOH max error,
        # both measured after the filter has seen two odometry fixes
        for kind, speed in [(TrajectoryKind.CONSTANT_VELOCITY, 1.0),
                            (TrajectoryKind.CONSTANT_VELOCITY, 0.5),
                            (TrajectoryKind.CIRCLE, 1.0)]:
            traj = TrajectorySpec(kind, 6.0, speed=speed, radius=2.0)
            imu = imu_stream(traj, 200.0)
            odom = odometry_stream(traj, 10.0, NoiseConfig(odom_pos_std=0.01), seed=2)
            fused = run_fusion(imu, odom, CFG)
            times = [p.timestamp_ns for p in fused if p.timestamp_ns >= int(0.5e9)]
            held = zero_order_hold(odom, times)

            def err(p):
                tru = true_state(traj, p.timestamp_ns * 1e-9)
                return float(np.linalg.norm(p.position - tru.pose.position))

            fused_max = max(err(p) for p in fused if p.timestamp_ns >= int(0.5e9))
            zoh_max = max(err(p) for p in held)
            assert fused_max < zoh_max

    def test_delayed_odometry_still_accepted(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 2.0, speed=1.0)
        imu = apply_delay(imu_stream(traj, 200.0), 5.0)
        odom = apply_delay(odometry_stream(traj, 10.0), 15.0)
        fuser = PoseFuser()
        out = run_fusion(imu, odom, fuser=fuser)
        # IMU samples delivered before the first odometry fix produce no pose
        assert len(out) == len(imu) - fuser.stats.skipped_imu
        assert fuser.stats.skipped_imu == 2  # delivery 5 and 10 ms, seed at 15 ms
        # 15 ms transport delay stays inside the 50 ms staleness window
        assert fuser.stats.rejected_stale == 0

    def test_imu_stall_holds_pose_until_a_fix_reseeds(self):
        fuser = PoseFuser()
        fuser.initialize(identity_pose(0))
        fuser.handle_imu([static_imu(5_000_000)])
        # the stream resumes 60 ms later: past the IMU gap limit, so held
        held, = fuser.handle_imu([static_imu(65_000_000)])
        assert held.timestamp_ns == 5_000_000
        assert (fuser.stats.predicts, fuser.stats.skipped_imu) == (1, 1)
        # the next fix is 95 ms ahead of the state: it re-seeds, and the
        # stream integrates again from there
        assert fuser.handle_odometry(identity_pose(100_000_000)) is True
        assert fuser.stats.reseeds == 1
        assert fuser.handle_imu([static_imu(105_000_000)])[0].timestamp_ns == 105_000_000
        assert fuser.stats.predicts == 2

    def test_fix_older_than_the_stream_does_not_raise(self):
        # odometry delayed past the IMU gap limit: the seed is 55 ms behind
        # the first IMU sample delivered after it
        traj = TrajectorySpec(TrajectoryKind.STATIC, 0.5)
        odom = [Delivered(p.timestamp_ns + 51_000_000, p)
                for p in odometry_stream(traj, 10.0)]
        fuser = PoseFuser()
        out = run_fusion(imu_stream(traj, 200.0), odom, fuser=fuser)
        assert len(out) == len(imu_stream(traj, 200.0)) - 11  # before the seed
        assert fuser.stats.predicts == 0

    def test_stale_injection_counted(self):
        fuser = PoseFuser()
        fuser.initialize(identity_pose(0))
        ts = 0
        for _ in range(40):
            ts += 5_000_000
            fuser.handle_imu([static_imu(ts)])
        assert fuser.handle_odometry(identity_pose(ts)) is True
        # 200 ms old: outside the 50 ms window
        assert fuser.handle_odometry(identity_pose(ts - 200_000_000)) is False
        assert fuser.stats.rejected_stale == 1


class TestZeroOrderHold:
    def test_holds_between_arrivals(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0, speed=1.0)
        odom = odometry_stream(traj, 10.0)
        held = zero_order_hold(odom, [150_000_000])
        assert np.allclose(held[0].position, [0.1, 0, 0.4], atol=1e-9)

    def test_error_just_before_update_is_speed_over_rate(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 5.0, speed=1.0)
        odom = odometry_stream(traj, 10.0)
        query = [p.timestamp_ns - 1 for p in odom[1:]]
        held = zero_order_hold(odom, query)
        errs = [
            np.linalg.norm(p.position - true_state(traj, p.timestamp_ns * 1e-9).pose.position)
            for p in held
        ]
        assert max(errs) == pytest.approx(0.100, abs=0.005)

    def test_query_before_first_delivery(self):
        traj = TrajectorySpec(TrajectoryKind.STATIC, 1.0)
        odom = apply_delay(odometry_stream(traj, 10.0), 10.0)
        with pytest.raises(ValueError, match="before first"):
            zero_order_hold(odom, [0])


class TestFusionConfig:
    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            FusionConfig(gyro_noise=0.0)
        with pytest.raises(ValueError):
            FusionConfig(init_pos_std=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200, 1e160, 1e-160, 1e-200])
    @pytest.mark.parametrize("key", ["gyro_noise", "odom_pos_std", "init_att_std"])
    def test_values_whose_square_is_not_normal_are_refused(self, key, value):
        """The filter squares every value: a square that overflows or is
        subnormal overflows the filter or makes its matrices singular."""
        with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
            FusionConfig(**{key: value})
        assert FusionConfig(**{key: 1e-150}) and FusionConfig(**{key: 1e150})

    def test_initial_covariance_diagonal(self):
        P = CFG.initial_covariance()
        assert P.shape == (15, 15)
        assert np.allclose(P, np.diag(np.diag(P)))
        assert np.diag(P)[0] == pytest.approx(CFG.init_pos_std**2)


def test_sample_before_any_fix_is_skipped():
    fuser = PoseFuser()
    assert fuser.handle_imu([static_imu(0)]) is None
    assert fuser.state is None
    assert (fuser.stats.predicts, fuser.stats.skipped_imu) == (0, 1)


def test_sample_at_the_seeding_fix_neither_predicts_nor_skips():
    fuser = PoseFuser()
    fuser.handle_odometry(identity_pose(0))
    seeded = fuser.state
    pose, = fuser.handle_imu([static_imu(0)])
    assert fuser.state is seeded and pose.timestamp_ns == 0
    assert np.array_equal(pose.position, seeded.position)
    assert (fuser.stats.predicts, fuser.stats.skipped_imu) == (0, 0)


def quat_bits(q):
    """Every bit of a quaternion's components, the sign of zero included."""
    return [float(c).hex() for c in (q.w, q.x, q.y, q.z)]


def reference_predict(state, imu, cfg):
    """predict as first written: F and Q built from scratch on every call,
    the exponential of the body rate in numpy."""
    dt = (imu.timestamp_ns - state.timestamp_ns) * 1e-9
    omega = imu.angular_velocity - state.gyro_bias
    f_body = imu.linear_acceleration - state.accel_bias
    rot = quat_to_matrix(state.orientation)
    a_world = rot @ f_body + vec3(0, 0, -GRAVITY)
    new_q = quat_normalize(quat_multiply(state.orientation,
                                         reference_quat_from_rotvec(omega * dt)))
    new_p = state.position + state.velocity * dt + 0.5 * a_world * dt * dt
    new_v = state.velocity + a_world * dt
    F = np.eye(15)
    F[0:3, 3:6] = np.eye(3) * dt
    F[3:6, 6:9] = -rot @ skew(f_body) * dt
    F[3:6, 12:15] = -rot * dt
    F[6:9, 6:9] = quat_to_matrix(reference_quat_from_rotvec(omega * dt)).T
    F[6:9, 9:12] = -np.eye(3) * dt
    Q = np.zeros((15, 15))
    Q[3:6, 3:6] = np.eye(3) * cfg.accel_noise**2 * dt
    Q[6:9, 6:9] = np.eye(3) * cfg.gyro_noise**2 * dt
    Q[9:12, 9:12] = np.eye(3) * cfg.gyro_bias_walk**2 * dt
    Q[12:15, 12:15] = np.eye(3) * cfg.accel_bias_walk**2 * dt
    P = F @ state.covariance @ F.T + Q
    return new_p, new_v, new_q, 0.5 * (P + P.T)


def reference_update(state, odom, cfg):
    """update_pose as first written: H, R and I built on every call."""
    y = np.empty(6)
    y[0:3] = odom.position - state.position
    y[3:6] = quat_log(quat_multiply(quat_conjugate(state.orientation), odom.orientation))
    H = np.zeros((6, 15))
    H[0:3, 0:3] = np.eye(3)
    H[3:6, 6:9] = np.eye(3)
    R = np.diag([cfg.odom_pos_std**2] * 3 + [cfg.odom_rot_std**2] * 3)
    P = state.covariance
    S = H @ P @ H.T + R
    K = np.linalg.solve(S.T, (P @ H.T).T).T
    dx = K @ y
    IKH = np.eye(15) - K @ H
    P_new = IKH @ P @ IKH.T + K @ R @ K.T
    new_q = quat_normalize(quat_multiply(state.orientation, reference_quat_from_rotvec(dx[6:9])))
    return state.position + dx[0:3], new_q, 0.5 * (P_new + P_new.T)


def random_state(rng, ts):
    a = rng.normal(size=(15, 15)) * 0.1
    q = quat_normalize(Quaternion(*rng.normal(size=4)))
    return FusionState(rng.normal(size=3), rng.normal(size=3), q,
                       rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.1,
                       a @ a.T + np.eye(15) * 1e-6, ts)


def random_config(rng):
    return FusionConfig(*(rng.uniform(0.5, 2.0, size=11)
                          * np.array(list(vars(FusionConfig()).values()))))


class TestCachedNoiseIsBitEqual:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50_000_000), st.booleans(),
           st.sampled_from([1.0, 1e-11, 0.0]))
    @settings(max_examples=300, deadline=None)
    @example(5, 5_000_000, True, 1e-11)  # |omega * dt| about 1e-13
    @example(5, 5_000_000, True, 0.0)
    def test_predict_matches_from_scratch(self, seed, dt_ns, default_cfg, rate_scale):
        """Bit-equal to the from-scratch step, also where |omega * dt| is
        below 1e-12 (the first-order branch) and where the rate is zero."""
        rng = np.random.default_rng(seed)
        cfg = CFG if default_cfg else random_config(rng)
        state = random_state(rng, 1_000_000_000)
        imu = ImuSample(state.timestamp_ns + dt_ns,
                        state.gyro_bias + rng.normal(size=3) * rate_scale,
                        rng.normal(size=3) + vec3(0, 0, GRAVITY))
        got, _ = predict(state, [imu], cfg)
        p, v, q, P = reference_predict(state, imu, cfg)
        assert np.array_equal(got.covariance, P)
        assert got.position.tobytes() == p.tobytes() and got.velocity.tobytes() == v.tobytes()
        assert quat_bits(got.orientation) == quat_bits(q)
        assert got.covariance.flags.writeable

    def test_predict_shares_the_biases(self):
        st0 = initial_state(identity_pose(), CFG)
        st1, _ = predict(st0, [static_imu(5_000_000)], CFG)
        assert st1.gyro_bias is st0.gyro_bias and st1.accel_bias is st0.accel_bias
        assert not st0.gyro_bias.flags.writeable and not st0.accel_bias.flags.writeable

    @given(st.integers(0, 2**32 - 1), st.integers(-50_000_000, 50_000_000))
    @settings(max_examples=100, deadline=None)
    def test_update_matches_from_scratch(self, seed, age_ns):
        rng = np.random.default_rng(seed)
        cfg = random_config(rng)
        state = random_state(rng, 1_000_000_000)
        odom = Pose(state.position + rng.normal(size=3) * 0.05,
                    quat_multiply(state.orientation, quat_from_rotvec(rng.normal(size=3) * 0.05)),
                    state.timestamp_ns - age_ns)
        got = update_pose(state, odom, cfg)
        p, q, P = reference_update(state, odom, cfg)
        assert np.array_equal(got.covariance, P)
        assert got.position.tobytes() == p.tobytes()
        assert quat_bits(got.orientation) == quat_bits(q)

    def test_non_finite_rate_rejected(self):
        st0 = initial_state(identity_pose(), CFG)
        bad = ImuSample(5_000_000, vec3(np.nan, 0, 0), vec3(0, 0, GRAVITY))
        with pytest.raises(ValueError, match="non-finite angular velocity"):
            predict(st0, [bad], CFG)

    def test_non_finite_specific_force_rejected(self):
        st0 = initial_state(identity_pose(), CFG)
        for f in (np.nan, np.inf, -np.inf):  # raised before any numpy warning
            bad = ImuSample(5_000_000, vec3(0, 0, 0), vec3(0, 0, f))
            with pytest.raises(ValueError, match="non-finite specific force"):
                predict(st0, [bad], CFG)


def pose_bits(pose):
    return pose.timestamp_ns, pose.position.tobytes(), quat_bits(pose.orientation)


def state_bits(state):
    return (state.timestamp_ns, state.position.tobytes(), state.velocity.tobytes(),
            quat_bits(state.orientation), state.covariance.tobytes())


def random_imu(rng, ts_ns, rate_scale=1.0):
    return ImuSample(ts_ns, rng.normal(size=3) * rate_scale,
                     rng.normal(size=3) + vec3(0, 0, GRAVITY))


class TestRunIsBitEqual:
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.integers(1, 50_000_000), min_size=1, max_size=64),
           st.booleans(), st.sampled_from([1.0, 1e-11, 0.0, None]))
    @settings(max_examples=200, deadline=None)
    @example(5, [5_000_000] * 20, True, 1e-11)  # |omega * dt| about 1e-13
    @example(5, [1, 50_000_000, 3_333_333, 1], False, None)
    def test_run_matches_sequential_steps(self, seed, dts_ns, default_cfg, rate_scale):
        """A run of 1-64 samples handled in one call is bit-equal to as many
        from-scratch steps: every pose, and the final position, velocity,
        quaternion and covariance. Steps are anywhere in (0, 50 ms], and the
        rates reach the first-order branch (|omega * dt| < 1e-12) and zero;
        a rate_scale of None mixes the three within the run."""
        rng = np.random.default_rng(seed)
        cfg = CFG if default_cfg else random_config(rng)
        state = random_state(rng, 1_000_000_000)
        samples = []
        for ts in (state.timestamp_ns + np.cumsum(dts_ns)).tolist():
            scale = rng.choice([1.0, 1e-11, 0.0]) if rate_scale is None else rate_scale
            s = random_imu(rng, ts, scale)
            samples.append(ImuSample(ts, state.gyro_bias + s.angular_velocity,
                                     s.linear_acceleration))
        fuser = PoseFuser(cfg)
        fuser.state = state
        poses = fuser.handle_imu(samples)

        want = []
        for s in samples:
            p, v, q, P = reference_predict(state, s, cfg)
            state = FusionState(p, v, q, state.gyro_bias, state.accel_bias, P, s.timestamp_ns)
            want.append(pose_bits(state.pose()))
        assert [pose_bits(p) for p in poses] == want
        assert state_bits(fuser.state) == state_bits(state)
        assert (fuser.stats.predicts, fuser.stats.skipped_imu) == (len(samples), 0)


def handled(seed_ms, times_ms, one_at_a_time):
    """A fuser seeded at seed_ms (None: not seeded) after handling samples
    at times_ms as one run or one at a time, and the poses it returned."""
    rng = np.random.default_rng(1)
    samples = [random_imu(rng, t * 1_000_000) for t in times_ms]
    fuser = PoseFuser()
    if seed_ms is not None:
        fuser.handle_odometry(identity_pose(seed_ms * 1_000_000))
    if not one_at_a_time:
        return fuser, fuser.handle_imu(samples)
    poses = [fuser.handle_imu([s]) for s in samples]
    return fuser, None if fuser.state is None else [p for p, in poses]


class TestRunBoundaries:
    """Handling a run gives the poses, state and stats of handling its
    samples one at a time."""

    @pytest.mark.parametrize("seed_ms, times_ms", [
        (None, [0, 5, 10]),
        (0, [0, 5, 10]),
        (0, [5, 10, 10, 15]),
        (0, [5, 10, 61, 65]),
        (0, [5, 10, 70, 40, 45]),
        (0, [5, 10, 8, 15, 20]),
    ], ids=["before-the-first-fix", "co-timed-with-the-seeding-fix", "co-timed-in-the-run",
            "gap-in-the-run", "gap-then-back-within-the-limit", "time-regression-in-the-run"])
    def test_run_equals_one_at_a_time(self, seed_ms, times_ms):
        (run_fuser, run), (one_fuser, one) = (handled(seed_ms, times_ms, one_at_a_time)
                                              for one_at_a_time in (False, True))
        assert run_fuser.stats == one_fuser.stats
        if seed_ms is None:
            assert run is one is None and run_fuser.state is one_fuser.state is None
            assert run_fuser.stats.skipped_imu == len(times_ms)
            return
        assert len(run) == len(times_ms)
        assert [pose_bits(p) for p in run] == [pose_bits(p) for p in one]
        assert state_bits(run_fuser.state) == state_bits(one_fuser.state)

    @pytest.mark.parametrize("before_ms", [[], [5, 10, 8]], ids=["first", "after-a-skip"])
    @pytest.mark.parametrize("rate, force, match", [
        (np.nan, 0.0, "non-finite angular velocity"),
        (0.0, np.inf, "non-finite specific force"),
        (-np.inf, np.nan, "non-finite angular velocity"),
    ])
    def test_non_finite_sample_stops_the_run_at_the_last_good_one(self, before_ms, rate,
                                                                   force, match):
        fuser, _ = handled(0, before_ms, one_at_a_time=True)
        want_state, want_stats = state_bits(fuser.state), dataclasses.replace(fuser.stats)
        rng = np.random.default_rng(1)
        good = [random_imu(rng, t * 1_000_000) for t in before_ms]
        bad = ImuSample(15_000_000, vec3(rate, 0, 0), vec3(0, 0, force))
        fuser = PoseFuser()
        fuser.handle_odometry(identity_pose(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            with pytest.raises(ValueError, match=match):
                fuser.handle_imu([*good, bad, static_imu(20_000_000)])
        assert state_bits(fuser.state) == want_state
        assert fuser.stats == want_stats


class CheckedFuser(PoseFuser):
    """Checks the filter invariants after every event it handles (an
    odometry fix or a run of IMU samples), and counts the IMU samples at
    the state's own time, which neither predict nor count as skipped."""

    def __init__(self):
        super().__init__()
        self.co_timed = 0

    def _check(self):
        if self.state is None:  # a sample before the first fix
            return
        P, q = self.state.covariance, self.state.orientation
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= 0.0
        assert abs(math.hypot(*q) - 1.0) <= 1e-12

    def handle_imu(self, samples):
        predicts = self.stats.predicts
        poses = super().handle_imu(samples)
        if poses is not None:
            # a pose is at its sample's own time for a predicted sample and
            # for a co-timed one, never for a skipped one
            self.co_timed += sum(t == s.timestamp_ns
                                 for t, s in zip(poses.timestamps_ns, samples))
            self.co_timed -= self.stats.predicts - predicts
        self._check()
        return poses

    def handle_odometry(self, odom):
        accepted = super().handle_odometry(odom)
        self._check()
        return accepted


class TestFilterInvariants:
    """Symmetric PSD covariance and a unit quaternion over random IMU and
    odometry streams: noisy, with dropped IMU samples (so dt varies) and
    transport delays up to beyond the staleness window."""

    @given(kind=st.sampled_from(list(TrajectoryKind)),
           speed=st.floats(0.0, 3.0), seed=st.integers(0, 2**16),
           gyro_std=st.floats(0.0, 0.05), accel_std=st.floats(0.0, 0.5),
           odom_pos_std=st.floats(0.0, 0.05), odom_yaw_std=st.floats(0.0, 0.05),
           imu_delay_ms=st.floats(0.0, 15.0), odom_delay_ms=st.integers(0, 80),
           drop=st.floats(0.0, 0.6))
    @settings(max_examples=100, deadline=None)
    def test_covariance_psd_and_quaternion_unit(self, kind, speed, seed, gyro_std,
                                                accel_std, odom_pos_std, odom_yaw_std,
                                                imu_delay_ms, odom_delay_ms, drop):
        traj = TrajectorySpec(kind, 1.0, speed=speed, radius=1.5, amplitude=0.05)
        noise = NoiseConfig(gyro_std=gyro_std, accel_std=accel_std,
                            odom_pos_std=odom_pos_std, odom_yaw_std=odom_yaw_std)
        rng = np.random.default_rng(seed)
        imu = imu_stream(traj, 200.0, noise, seed)
        # every fifth sample kept, so no gap exceeds the 50 ms IMU limit
        keep = (rng.random(len(imu)) >= drop) | (np.arange(len(imu)) % 5 == 0)
        imu = [s for s, k in zip(imu, keep) if k]
        shift = odom_delay_ms * 1_000_000
        odom = [Delivered(p.timestamp_ns + shift, p)
                for p in odometry_stream(traj, 10.0, noise, seed + 1)]
        fuser = CheckedFuser()
        out = run_fusion(apply_delay(imu, imu_delay_ms), odom, fuser=fuser)
        stats = fuser.stats
        assert stats.predicts + stats.skipped_imu + fuser.co_timed == len(imu)
        assert stats.updates + stats.rejected_stale + stats.reseeds == len(odom)
