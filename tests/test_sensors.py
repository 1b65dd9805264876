"""Sensor stream synthesis tests: IMU, odometry, lidar, delay injection."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import terraforge.sensors as sensors_mod
from terraforge.geometry import (GRAVITY, IDENTITY, Pose, quat_from_rotvec, quat_from_yaw,
                                 quat_multiply, quat_to_matrix, vec3)
from terraforge.sensors import (
    Delivered,
    ImuSample,
    LidarScan,
    NoiseConfig,
    ScanPattern,
    SensorUnderground,
    TrajectoryKind,
    TrajectorySpec,
    apply_delay,
    imu_stream,
    lidar_scan,
    merge_delivered,
    odometry_stream,
    scan_points_world,
    true_state,
)
from terraforge.terrain import (Heightfield, Robot, TerrainSpec, TerrainType, clamped_height,
                                generate, grid_coords, sample_height, sample_height_vec)

from reference_kinematics import reference_true_state


def static_traj(duration=1.0):
    return TrajectorySpec(TrajectoryKind.STATIC, duration)


class TestTrueState:
    def test_static(self):
        s = true_state(static_traj(), 0.37)
        assert np.allclose(s.pose.position, [0, 0, 0.4])
        assert np.all(s.velocity == 0) and np.all(s.angular_velocity == 0)

    def test_constant_velocity(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 5.0, speed=1.0)
        s = true_state(traj, 2.0)
        assert np.allclose(s.pose.position, [2.0, 0.0, 0.4], atol=1e-12)
        assert np.allclose(s.velocity, [1, 0, 0])

    def test_circle_centripetal_magnitude(self):
        traj = TrajectorySpec(TrajectoryKind.CIRCLE, 10.0, speed=1.0, radius=2.0)
        for t in [0.0, 1.3, 4.4, 9.9]:
            s = true_state(traj, t)
            assert np.linalg.norm(s.acceleration) == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            true_state(static_traj(1.0), 1.5)
        with pytest.raises(ValueError, match="outside"):
            true_state(static_traj(1.0), -0.1)

    def test_speed_bound(self):
        with pytest.raises(ValueError, match="speed"):
            TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0, speed=3.5)


class TestImuStream:
    def test_static_reads_gravity(self):
        for s in imu_stream(static_traj(), 200.0):
            assert np.allclose(s.angular_velocity, 0)
            assert np.allclose(s.linear_acceleration, [0, 0, GRAVITY])

    def test_constant_velocity_reads_gravity(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0, speed=1.0)
        for s in imu_stream(traj, 200.0):
            assert np.allclose(s.linear_acceleration, [0, 0, GRAVITY], atol=1e-12)

    def test_circle_body_frame_acceleration(self):
        traj = TrajectorySpec(TrajectoryKind.CIRCLE, 2.0, speed=1.0, radius=2.0)
        want = (1.0 / 2.0) ** 2  # (v^2/r)^2
        for s in imu_stream(traj, 200.0):
            ax, ay = s.linear_acceleration[0], s.linear_acceleration[1]
            assert ax * ax + ay * ay == pytest.approx(want, abs=1e-9)

    def test_exact_spacing(self):
        samples = imu_stream(static_traj(0.1), 200.0)
        ts = np.array([s.timestamp_ns for s in samples])
        assert np.all(np.diff(ts) == 5_000_000)
        assert len(samples) == 21  # endpoints inclusive

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            imu_stream(static_traj(), 50.0)

    def test_double_integration_recovers_trajectory(self):
        # strapdown consistency: integrating noise-free samples reproduces
        # the analytic path to under a millimeter over 10 s
        traj = TrajectorySpec(TrajectoryKind.SINUSOID, 10.0, speed=0.5,
                              amplitude=0.05, frequency=0.5)
        samples = imu_stream(traj, 200.0)
        s0 = true_state(traj, 0.0)
        pos = s0.pose.position.copy()
        vel = s0.velocity.copy()
        g_dn = np.array([0, 0, -GRAVITY])
        worst = 0.0
        for a, b in zip(samples, samples[1:]):
            dt = (b.timestamp_ns - a.timestamp_ns) * 1e-9
            tru_a = true_state(traj, a.timestamp_ns * 1e-9)
            rot = quat_to_matrix(tru_a.pose.orientation)
            acc = rot @ a.linear_acceleration + g_dn
            pos = pos + vel * dt + 0.5 * acc * dt * dt
            vel = vel + acc * dt
            tru_b = true_state(traj, b.timestamp_ns * 1e-9)
            worst = max(worst, float(np.linalg.norm(pos - tru_b.pose.position)))
        assert worst < 1e-3

    def test_noise_deterministic_per_seed(self):
        noise = NoiseConfig(gyro_std=0.01, accel_std=0.1)
        a = imu_stream(static_traj(0.2), 200.0, noise, seed=5)
        b = imu_stream(static_traj(0.2), 200.0, noise, seed=5)
        c = imu_stream(static_traj(0.2), 200.0, noise, seed=6)
        assert all(np.array_equal(x.linear_acceleration, y.linear_acceleration)
                   for x, y in zip(a, b))
        assert any(not np.array_equal(x.linear_acceleration, y.linear_acceleration)
                   for x, y in zip(a, c))


class TestOdometryStream:
    def test_noise_free_static_identity(self):
        for p in odometry_stream(static_traj(), 10.0):
            assert np.allclose(p.position, [0, 0, 0.4])
            assert p.orientation.w == 1.0

    def test_consecutive_spacing_at_speed(self):
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 2.0, speed=1.0)
        poses = odometry_stream(traj, 10.0)
        for a, b in zip(poses, poses[1:]):
            step = np.linalg.norm(b.position - a.position)
            assert step == pytest.approx(0.1, abs=1e-9)

    def test_empirical_noise_std(self):
        traj = TrajectorySpec(TrajectoryKind.STATIC, 100.0)
        noise = NoiseConfig(odom_pos_std=0.01)
        poses = odometry_stream(traj, 10.0, noise, seed=0)
        errs = np.array([p.position - [0, 0, 0.4] for p in poses])
        std = errs.std()
        assert 0.008 <= std <= 0.012  # 1001 samples, 20% band


def reference_streams(traj, noise, seed):
    """imu_stream and odometry_stream as first written: the frozen per-sample
    true state, and rng.normal draws per sample and stream."""
    rng = np.random.default_rng(seed)
    imu = []
    for ts in sensors_mod.sample_times_ns(traj.duration, 200.0):
        s = reference_true_state(traj, ts * 1e-9)
        accel = quat_to_matrix(s.pose.orientation).T @ (s.acceleration + vec3(0, 0, GRAVITY))
        omega = s.angular_velocity.copy()
        if noise.gyro_std > 0:
            omega = omega + rng.normal(0.0, noise.gyro_std, 3)
        if noise.accel_std > 0:
            accel = accel + rng.normal(0.0, noise.accel_std, 3)
        imu.append(ImuSample(ts, omega, accel))
    rng = np.random.default_rng(seed)
    odom = []
    for ts in sensors_mod.sample_times_ns(traj.duration, 10.0):
        s = reference_true_state(traj, ts * 1e-9)
        pos, q = s.pose.position, s.pose.orientation
        if noise.odom_pos_std > 0:
            pos = pos + rng.normal(0.0, noise.odom_pos_std, 3)
        if noise.odom_yaw_std > 0:
            q = quat_multiply(quat_from_yaw(rng.normal(0.0, noise.odom_yaw_std)), q)
        odom.append(Pose(pos, q, ts))
    return imu, odom


STDS = st.sampled_from([0.0, 0.005, 0.05, 1.0])


@given(st.sampled_from(list(TrajectoryKind)), STDS, STDS, STDS, STDS,
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bulk_noise_equals_per_sample_draws(kind, gyro, accel, pos, yaw, seed):
    traj = TrajectorySpec(kind, 1.0, speed=1.0, amplitude=0.1)
    noise = NoiseConfig(gyro_std=gyro, accel_std=accel, odom_pos_std=pos, odom_yaw_std=yaw)
    imu, odom = reference_streams(traj, noise, seed)
    got = imu_stream(traj, 200.0, noise, seed)
    assert [x.timestamp_ns for x in got] == [x.timestamp_ns for x in imu]
    for a, b in zip(got, imu):
        assert a.angular_velocity.tobytes() == b.angular_velocity.tobytes()
        assert a.linear_acceleration.tobytes() == b.linear_acceleration.tobytes()
    got = odometry_stream(traj, 10.0, noise, seed)
    # as the log writes them: a quaternion component that is an int stays one
    assert [pose_bytes(p) for p in got] == [pose_bytes(p) for p in odom]


def pose_bytes(p):
    """Every bit of a Pose; repr shows whether a quaternion component is an
    int and the sign of each zero."""
    return p.timestamp_ns, p.position.tobytes(), repr(p.orientation)


@given(st.sampled_from(list(TrajectoryKind)), st.floats(0.01, 3.0), st.floats(0.0, 3.0),
       st.floats(0.1, 10.0), st.floats(0.0, 0.5), st.floats(0.05, 5.0),
       st.floats(0.001, 4.0), st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=100, deadline=None)
@example(TrajectoryKind.CIRCLE, 0.4, 1.0, 1.0, 0.0, 1.0, 0.3, [])
@example(TrajectoryKind.SINUSOID, 0.4, 0.0, 1.0, 0.0, 1.0, 0.3, [])
def test_true_states_rows_equal_the_frozen_reference(kind, height, speed, radius, amplitude,
                                                     frequency, duration, fractions):
    """Every row of true_states is bit-equal to the frozen per-sample
    true_state, at 200 Hz stream times, the last sample of the trajectory
    and arbitrary ns in between; so is every pose of poses() and the
    one-row view true_state."""
    traj = TrajectorySpec(kind, duration, height_above_ground=height, speed=speed,
                          radius=radius, amplitude=amplitude, frequency=frequency)
    end = round(duration * 1e9)
    times = sensors_mod.sample_times_ns(duration, 200.0) + [round(f * end) for f in fractions]
    times.append(end)
    got = sensors_mod.true_states(traj, times)
    want = [reference_true_state(traj, ts * 1e-9) for ts in times]
    assert got.times_ns.tolist() == times
    for name in ("velocity", "angular_velocity", "acceleration"):
        assert getattr(got, name).tobytes() == np.array(
            [getattr(s, name) for s in want]).tobytes(), name
    assert [pose_bytes(p) for p in got.poses()] == [pose_bytes(s.pose) for s in want]
    for ts, s in zip(times[-3:], want[-3:]):
        one = true_state(traj, ts * 1e-9)
        assert pose_bytes(one.pose) == pose_bytes(s.pose)
        assert one.acceleration.tobytes() == s.acceleration.tobytes()


def test_true_states_bounds_in_integer_ns():
    traj = TrajectorySpec(TrajectoryKind.CIRCLE, 0.3, speed=1.0)
    assert sensors_mod.true_states(traj, [300_000_000]).times_ns.tolist() == [300_000_000]
    assert true_state(traj, 300_000_000 * 1e-9).pose.timestamp_ns == 300_000_000
    for bad in ([-1], [0, 300_000_001]):
        with pytest.raises(ValueError, match="outside"):
            sensors_mod.true_states(traj, bad)
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="outside"):
            true_state(traj, t)


@pytest.mark.parametrize("kind", list(TrajectoryKind))
def test_streams_build_for_every_tenth_of_a_second(kind):
    """Every stream builds for 0.1 ... 10.0 s and ends at the duration,
    though the last sample's ts * 1e-9 can exceed it by an ulp (0.3 s) and
    duration * rate can fall one short in floats (2.3 s * 200 Hz)."""
    for i in range(1, 101):
        traj = TrajectorySpec(kind, i / 10, speed=1.0, amplitude=0.05)
        end = round(traj.duration * 1e9)
        assert imu_stream(traj, 200.0)[-1].timestamp_ns == end
        assert odometry_stream(traj, 10.0)[-1].timestamp_ns == end
        poses = sensors_mod.true_states(
            traj, sensors_mod.sample_times_ns(traj.duration, 10.0)).poses()
        assert poses[-1].timestamp_ns == end


@pytest.fixture
def samples(monkeypatch):
    """The number of points of every sample_height_vec call lidar_scan makes."""
    sizes = []

    def counting(hf_, xs, ys):
        sizes.append(np.size(xs))
        return sample_height_vec(hf_, xs, ys)

    monkeypatch.setattr(sensors_mod, "sample_height_vec", counting)
    return sizes


class TestLidarScan:
    def test_flat_field_hits_surface(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        pose = true_state(static_traj(), 0.0).pose
        pose = type(pose)(np.array([4.0, 0.0, 0.5]), pose.orientation, 0)
        scan = lidar_scan(hf, pose)
        assert scan.points.shape[0] > 0
        world = scan_points_world(scan, pose)
        assert np.all(np.abs(world[:, 2]) < 0.011)

    def test_platform_partitions_heights(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9))
        pose_cls = type(true_state(static_traj(), 0.0).pose)
        pose = pose_cls(np.array([3.9, 0.0, 1.5]),
                        true_state(static_traj(), 0.0).pose.orientation, 0)
        scan = lidar_scan(hf, pose)
        world = scan_points_world(scan, pose)
        low = np.abs(world[:, 2]) < 0.05
        high = np.abs(world[:, 2] - 0.55) < 0.05
        assert low.sum() > 10 and high.sum() > 10
        # every hit is one or the other (edge points excepted by tolerance)
        near_edge = np.abs(world[:, 0] - 3.975) < 0.1
        assert np.all(low | high | near_edge)

    def test_hits_match_surface_oracle(self):
        hf = generate(TerrainSpec(TerrainType.STAIRS, 4))
        pose_cls = type(true_state(static_traj(), 0.0).pose)
        pose = pose_cls(np.array([2.0, 0.0, 1.0]),
                        true_state(static_traj(), 0.0).pose.orientation, 0)
        scan = lidar_scan(hf, pose)
        world = scan_points_world(scan, pose)
        # skip points within one cell of a tread edge where the bilinear
        # surface is a ramp, not a step
        for x, y, z in world[::7]:
            truth = sample_height(hf, x, y)
            frac = (x % 0.30) / 0.30
            if 0.15 < frac < 0.85:
                assert abs(z - truth) < 0.011

    def test_ray_directions_computed_once_and_read_only(self):
        pattern = ScanPattern()
        dirs = pattern.ray_directions
        assert pattern.ray_directions is dirs
        assert dirs.shape == (64 * 32, 3) and not dirs.flags.writeable
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        with pytest.raises(ValueError, match="read-only"):
            dirs[0, 0] = 0.0

    def test_empty_pattern(self):
        for empty in ({"n_azimuth": 0}, {"n_elevation": 0}):
            with pytest.raises(ValueError, match="must be >= 1"):
                ScanPattern(**empty)

    def test_march_that_cannot_fit_is_refused(self):
        for pattern in ({"ray_step": 1e-6}, {"max_range": np.inf}, {"max_range": np.nan},
                        {"max_range": 1000.0, "ray_step": 0.0099}):
            with pytest.raises(ValueError, match="at most 100000 steps"):
                ScanPattern(**pattern)
        for rays in ({"n_azimuth": 10**6}, {"n_azimuth": 3126, "n_elevation": 32}):
            with pytest.raises(ValueError, match="at most 100000 rays"):
                ScanPattern(**rays)
        ScanPattern(n_azimuth=3125, n_elevation=32, max_range=1000.0, ray_step=0.01)  # the limits

    def test_sensor_underground(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9))
        pose_cls = type(true_state(static_traj(), 0.0).pose)
        pose = pose_cls(np.array([6.0, 0.0, 0.3]),  # platform top is 0.55
                        true_state(static_traj(), 0.0).pose.orientation, 0)
        with pytest.raises(ValueError, match="sensor underground"):
            lidar_scan(hf, pose)

    def test_sensor_underground_is_typed_and_reports_heights(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9))
        pose = Pose(np.array([6.0, 0.0, 0.3]), true_state(static_traj(), 0.0).pose.orientation, 0)
        with pytest.raises(SensorUnderground, match=r"z 0\.300 m .* ground at 0\.550 m"):
            lidar_scan(hf, pose)

    def test_sensor_off_tile_scans(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        pose_cls = type(true_state(static_traj(), 0.0).pose)
        pose = pose_cls(np.array([-0.5, 0.0, 0.4]),  # tile starts at x = 0
                        true_state(static_traj(), 0.0).pose.orientation, 0)
        with pytest.raises(ValueError, match="outside heightfield"):
            sample_height(hf, -0.5, 0.0)
        scan = lidar_scan(hf, pose)
        world = scan_points_world(scan, pose)
        assert scan.points.shape[0] > 0
        assert np.all(world[:, 0] >= 0.0)

    def test_sensor_beside_tile_hits_a_ray_that_enters_late(self):
        # 1 m past the tile's far x edge (7.95) and 1 m up, a -30 degree ray
        # along -x meets the flat tile 0.73 m in, at range 2 m, well after
        # its 64th sample
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        pattern = ScanPattern(n_azimuth=1, n_elevation=1, elevation_min=np.radians(-30.0),
                              elevation_max=np.radians(-30.0))
        pose = Pose(np.array([8.95, 0.0, 1.0]), IDENTITY, 0)
        points = lidar_scan(hf, pose, pattern).points
        assert points.shape == (1, 3)
        assert abs(np.linalg.norm(points[0]) - 2.0) <= pattern.ray_step

    def test_sensor_beside_tile_samples_little_off_it(self, samples):
        # a ray that misses the tile is not sampled, and one that meets it
        # from beside it is sampled from where it enters: about 2 samples per
        # hit, where marching each ray from its descent point took 435
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        hits = lidar_scan(hf, Pose(np.array([8.95, 0.0, 1.0]), IDENTITY, 0)).points.shape[0]
        assert hits > 0
        assert sum(samples) / hits < 2.4

    def test_range_noise_deterministic(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        pose_cls = type(true_state(static_traj(), 0.0).pose)
        pose = pose_cls(np.array([4.0, 0.0, 0.5]),
                        true_state(static_traj(), 0.0).pose.orientation, 0)
        noise = NoiseConfig(lidar_range_std=0.01)
        a = lidar_scan(hf, pose, noise=noise, seed=3)
        b = lidar_scan(hf, pose, noise=noise, seed=3)
        c = lidar_scan(hf, pose, noise=noise, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)


def _leaving(hf, xs, ys, dx, dy):
    """Whether each point (xs, ys) on a ray along (dx, dy) is outside the
    tile on an axis along which the ray is not heading back: the tile is
    convex, so no later sample of that ray is on it."""
    (x0, y0), (x1, y1) = hf.origin, hf.far_corner
    return (((xs > x1) & (dx >= 0)) | ((xs < x0) & (dx <= 0))
            | ((ys > y1) & (dy >= 0)) | ((ys < y0) & (dy <= 0)))


def _chunked_scan(hf, pose, pattern, noise, seed):
    """Oracle: the plain marcher, every ray from t = 0 in 64-step chunks; a
    ray ends at the first chunk end past which it cannot reach the tile."""
    origin = pose.position
    ground, on_tile = sample_height_vec(hf, origin[:1], origin[1:2])
    if on_tile[0] and origin[2] <= ground[0]:
        raise ValueError("sensor underground")
    az = np.linspace(-np.pi, np.pi, pattern.n_azimuth, endpoint=False)
    el = np.linspace(pattern.elevation_min, pattern.elevation_max, pattern.n_elevation)
    azg, elg = np.meshgrid(az, el, indexing="ij")
    ce = np.cos(elg)
    dirs_body = np.stack([ce * np.cos(azg), ce * np.sin(azg), np.sin(elg)], axis=-1).reshape(-1, 3)
    dirs = dirs_body @ quat_to_matrix(pose.orientation).T

    n = dirs.shape[0]
    hit_t = np.full(n, np.nan)
    active = np.arange(n)
    prev_f = np.full(n, np.nan)
    step = pattern.ray_step
    n_steps = int(pattern.max_range / step)
    chunk = 64
    for start in range(0, n_steps, chunk):
        if active.size == 0:
            break
        ts = (np.arange(start, min(start + chunk, n_steps)) + 1) * step
        pts = origin[None, None, :] + ts[None, :, None] * dirs[active][:, None, :]
        surf, ok = sample_height_vec(hf, pts[:, :, 0].ravel(), pts[:, :, 1].ravel())
        surf = surf.reshape(len(active), len(ts))
        ok = ok.reshape(len(active), len(ts))
        f = pts[:, :, 2] - surf
        below = ok & (f <= 0.0)
        crossed = below.any(axis=1)
        first = np.where(crossed, below.argmax(axis=1), 0)
        rows = np.arange(len(active))
        f_hit = f[rows, first]
        t_hit = ts[first]
        f_prev = np.where(first > 0, f[rows, np.maximum(first - 1, 0)], prev_f[active])
        t_prev = t_hit - step
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(np.isfinite(f_prev) & (f_prev > 0), f_prev / (f_prev - f_hit), 1.0)
        t_star = t_prev + np.clip(frac, 0.0, 1.0) * step
        hit_t[active[crossed]] = t_star[crossed]
        d = dirs[active]
        exited = _leaving(hf, pts[:, -1, 0], pts[:, -1, 1], d[:, 0], d[:, 1]) & ~crossed
        prev_f[active] = f[:, -1]
        active = active[~crossed & ~exited]

    mask = np.isfinite(hit_t)
    ranges = hit_t[mask]
    if noise.lidar_range_std > 0:
        rng = np.random.default_rng(seed)
        ranges = ranges + rng.normal(0.0, noise.lidar_range_std, ranges.size)
    return dirs_body[mask] * ranges[:, None]


@lru_cache(maxsize=32)
def _tile(robot, terrain, level):
    return generate(TerrainSpec(terrain, level, robot))


PATTERNS = [ScanPattern(), ScanPattern(max_range=0.9), ScanPattern(ray_step=0.02),
            ScanPattern(n_azimuth=24, n_elevation=12, elevation_max=np.radians(15.0))]


def _sensor_pose(hf, x, y, height, lift, yaw, tilt):
    top = float(hf.heights.max())
    ground, on_tile = sample_height_vec(hf, [x], [y])
    if height == "above_top":
        z = top + 0.01 + 2.0 * lift
    elif height == "below_top" and on_tile[0] and ground[0] < top:
        # over the local ground, under the tile top
        z = ground[0] + (top - ground[0]) * (0.02 + 0.96 * lift)
    elif height == "on_block":
        # 1e-5 m above the largest node of one of the cells, over the local
        # ground: a bound a march start may come down to
        h = hf.heights
        maxes = np.unique(np.maximum(np.maximum(h[:-1, :-1], h[1:, :-1]),
                                     np.maximum(h[:-1, 1:], h[1:, 1:])))
        maxes = maxes[maxes + 1e-5 > (ground[0] if on_tile[0] else -np.inf)]
        z = float(maxes[int(lift * (maxes.size - 1))]) + 1e-5
    else:
        z = float(hf.heights.min()) - 0.2 + (top - float(hf.heights.min()) + 1.2) * lift
    q = quat_multiply(quat_from_rotvec([0.0, 0.0, yaw]), quat_from_rotvec([tilt, 0.5 * tilt, 0.0]))
    return Pose(np.array([x, y, z]), q, 0)


SENSOR_POSES = dict(robot=st.sampled_from(list(Robot)), terrain=st.sampled_from(list(TerrainType)),
                    level=st.integers(0, 9),
                    x=st.floats(-1.5, 9.5), y=st.floats(-5.5, 5.5),
                    height=st.sampled_from(["above_top", "below_top", "on_block", "any"]),
                    lift=st.floats(0.0, 1.0),
                    yaw=st.floats(-np.pi, np.pi), tilt=st.floats(-0.4, 0.4),
                    pattern=st.sampled_from(PATTERNS))

# poses whose rays descend into a chord they do not stay above: near-vertical
# rays from high above a low stair tread next to a riser, a sensor on a tread
# 1e-5 m above the largest node of a cell, a tilted sensor over a platform
# edge, and a sensor 1.5 m above the lowest stairs tread looking along it,
# whose grazing rays run far along it
DESCENT_POSES = [
    dict(robot=Robot.LITE3, terrain=TerrainType.STAIRS, level=5, x=1.27, y=0.1,
         height="above_top", lift=0.5, yaw=0.0, tilt=0.03, pattern=PATTERNS[0]),
    dict(robot=Robot.LITE3, terrain=TerrainType.STAIRS, level=5, x=1.1, y=0.1,
         height="on_block", lift=0.125, yaw=0.3, tilt=0.0, pattern=PATTERNS[0]),
    dict(robot=Robot.X30, terrain=TerrainType.HIGH_PLATFORM, level=9, x=3.98, y=0.3,
         height="above_top", lift=0.3, yaw=np.pi, tilt=0.2, pattern=PATTERNS[0]),
    *(dict(robot=Robot.LITE3, terrain=TerrainType.STAIRS, level=5, x=1.15, y=y,
           height="above_top", lift=0.285, yaw=yaw, tilt=0.0, pattern=PATTERNS[0])
      for y, yaw in ((-3.9, np.pi / 2), (3.9, -np.pi / 2))),
]


# sensors on a tile edge (the tile spans x 0 to 7.95 and y -3.975 to
# 3.975), whose straight-down and axis-aligned rays run within 1e-15 m of
# that edge: their samples round to floats on the tile for metres after the
# exact line has left it, so a tile exit from exact arithmetic drops hits
EDGE_POSES = [dict(robot=Robot.LITE3, terrain=terrain, level=5, x=x, y=y, height="above_top",
                   lift=0.5, yaw=yaw, tilt=0.0, pattern=PATTERNS[0])
              for terrain in (TerrainType.SLOPE, TerrainType.STAIRS)
              for x, y, yaw in ((7.95, 0.0, 0.0), (0.0, -3.975, 0.0), (3.0, 3.975, np.pi / 2))]


# sensors tilted 0.3 rad, over stairs and over the gap's near edge: the rays
# of a heading bin spread, so each vertex bound carries their stray from the
# heading's line
TILTED_POSES = [
    dict(robot=Robot.LITE3, terrain=TerrainType.STAIRS, level=5, x=2.5, y=0.3,
         height="above_top", lift=0.3, yaw=0.4, tilt=0.3, pattern=PATTERNS[0]),
    dict(robot=Robot.LITE3, terrain=TerrainType.GAP, level=9, x=3.7, y=0.2,
         height="above_top", lift=0.2, yaw=0.1, tilt=0.3, pattern=PATTERNS[0]),
]


def pose_examples(**extra):
    def add(test):
        for pose in DESCENT_POSES + EDGE_POSES + TILTED_POSES:
            test = example(**pose, **extra)(test)
        return test
    return add


class TestMarcherEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(**SENSOR_POSES, range_std=st.sampled_from([0.0, 0.01]))
    @pose_examples(range_std=0.0)
    def test_scan_bytes_match_chunked_oracle(self, robot, terrain, level, x, y, height,
                                             lift, yaw, tilt, pattern, range_std):
        hf = _tile(robot, terrain, level)
        pose = _sensor_pose(hf, x, y, height, lift, yaw, tilt)
        noise = NoiseConfig(lidar_range_std=range_std)
        try:
            want = _chunked_scan(hf, pose, pattern, noise, seed=5)
        except ValueError:
            with pytest.raises(ValueError, match="sensor underground"):
                lidar_scan(hf, pose, pattern, noise, seed=5)
            return
        got = lidar_scan(hf, pose, pattern, noise, seed=5).points
        assert got.tobytes() == want.tobytes()

    # ground with one-cell spikes, under level and tilted sensors: the cells
    # a heading's line passes twist, so its bounds must carry their bend
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), x=st.floats(0.5, 3.5), y=st.floats(-1.5, 1.5),
           lift=st.floats(0.02, 1.0), yaw=st.floats(-np.pi, np.pi),
           tilt=st.one_of(st.just(0.0), st.floats(-0.4, 0.4)))
    @example(seed=8156, x=1.67, y=1.424, lift=0.633, yaw=1.2166, tilt=0.0172)
    @example(seed=5344, x=0.521, y=0.437, lift=0.726, yaw=2.108, tilt=-0.1745)
    @example(seed=1, x=1.3, y=-0.4, lift=0.1, yaw=2.0, tilt=0.0)
    def test_scan_bytes_match_chunked_oracle_on_spiky_ground(self, seed, x, y, lift, yaw, tilt):
        rng = np.random.default_rng(seed)
        heights = rng.normal(0.0, 0.01, (81, 81)) + 0.3 * (rng.random((81, 81)) < 0.03)
        hf = Heightfield(81, 81, 0.05, np.array([0.0, -2.0]), heights)
        q = quat_multiply(quat_from_rotvec([0.0, 0.0, yaw]), quat_from_rotvec([tilt, 0.5 * tilt, 0.0]))
        pose = Pose(np.array([x, y, sample_height(hf, x, y) + lift]), q, 0)
        want = _chunked_scan(hf, pose, PATTERNS[0], NoiseConfig(), seed=5)
        assert lidar_scan(hf, pose).points.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(**SENSOR_POSES)
    @pose_examples()
    # beside the tile, rays a subnormal tilt off the y axis enter it beyond
    # 1e300 m: the march start must not overflow
    @example(robot=Robot.LITE3, terrain=TerrainType.SLOPE, level=0, x=0.0, y=4.0,
             height="above_top", lift=0.0, yaw=0.0, tilt=-2.2250738585072014e-308,
             pattern=PATTERNS[0])
    def test_no_hit_before_march_start(self, robot, terrain, level, x, y, height,
                                       lift, yaw, tilt, pattern):
        # every sample _march_bounds skips is above the surface: a ray's first
        # on-tile sample at or below it (up to `last`) and the sample that the
        # hit interpolates from both lie at or after `start`
        hf = _tile(robot, terrain, level)
        pose = _sensor_pose(hf, x, y, height, lift, yaw, tilt)
        origin = pose.position
        ground, on_tile = sample_height_vec(hf, origin[:1], origin[1:2])
        assume(not (on_tile[0] and origin[2] <= ground[0]))
        dirs = pattern.ray_directions @ quat_to_matrix(pose.orientation).T
        step = pattern.ray_step
        n_steps = int(pattern.max_range / step)
        start, last = sensors_mod._march_bounds(hf, origin, dirs, step, n_steps)
        ks = np.arange(n_steps)
        ts = (ks + 1) * step
        for rows in np.array_split(np.arange(dirs.shape[0]), 8):  # bounds memory
            d = dirs[rows]
            surf, ok = sample_height_vec(hf, (origin[0] + ts * d[:, :1]).ravel(),
                                         (origin[1] + ts * d[:, 1:2]).ravel())
            f = (origin[2] + ts * d[:, 2:]) - surf.reshape(-1, n_steps)
            below = ok.reshape(f.shape) & (f <= 0.0) & (ks <= last[rows, None])
            hit = below.any(axis=1)
            first = below.argmax(axis=1)[hit]
            assert np.all(start[rows][hit] <= np.maximum(first - 1, 0))

    # bounds about 20% above what these trajectories measure (2.13 slope,
    # 2.03 stairs, 2.21 gap, 2.03 platform, 2.66 stones samples per hit),
    # so a marcher that starts each ray where it comes down to the largest
    # cell maximum along its heading's segment, instead of where it meets
    # the chord of the vertex bounds, fails (5.62 stairs, 4.61 gap, 2.83
    # platform, 9.29 stones)
    @pytest.mark.parametrize("terrain, level, height, bound", [
        (TerrainType.SLOPE, 0, 0.4, 2.6), (TerrainType.STAIRS, 5, 1.5, 2.45),
        (TerrainType.GAP, 9, 0.4, 2.65), (TerrainType.HIGH_PLATFORM, 5, 0.9, 2.45),
        (TerrainType.DISCRETE_STONES, 5, 0.4, 3.2)],
        ids=["slope", "stairs", "gap", "platform", "stones"])
    def test_few_samples_per_hit(self, samples, terrain, level, height, bound):
        hf = generate(TerrainSpec(terrain, level))
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 5.0, speed=1.0,
                              height_above_ground=height)
        hits = sum(lidar_scan(hf, true_state(traj, t).pose).points.shape[0]
                   for t in np.arange(0.0, 5.01, 0.5))
        assert hits > 0
        assert sum(samples) / hits < bound


def _heading_groups(dirs):
    """The middle heading and the largest spread from it of each of the
    scan's heading bins, as _profile_starts groups its rays."""
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    bins = ((phi + np.pi) * (sensors_mod.PROFILE_BINS / (2 * np.pi))).astype(np.int64)
    groups = [phi[bins == k] for k in np.unique(bins)]
    mid = np.array([0.5 * (g.min() + g.max()) for g in groups])
    return mid, np.array([np.abs(g - m).max() for g, m in zip(groups, mid)])


def _field(kind, seed):
    if kind == "spiky":  # as in test_scan_bytes_match_chunked_oracle_on_spiky_ground
        rng = np.random.default_rng(seed)
        heights = rng.normal(0.0, 0.01, (81, 81)) + 0.3 * (rng.random((81, 81)) < 0.03)
        return Heightfield(81, 81, 0.05, np.array([0.0, -2.0]), heights)
    if kind == "saddle":  # every cell twists, and no second difference is nonzero
        i, j = np.indices((81, 81)) - 40
        return Heightfield(81, 81, 0.05, np.array([0.0, -2.0]), i * j / 512)
    terrain = TerrainType.STAIRS if kind == "stairs" else TerrainType.DISCRETE_STONES
    return _tile(Robot.LITE3, terrain, seed % 10)


# the start bound itself: along each heading group's line and its two
# outermost headings, the surface sampled every res / 50 (held outwards past
# the tile's edges) never rises above the chords of the vertex bounds
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["spiky", "saddle", "stairs", "stones"]), seed=st.integers(0, 2**16),
       where=st.sampled_from(["node", "beside", "any"]), fx=st.floats(0.0, 1.0),
       fy=st.floats(0.0, 1.0), lift=st.floats(0.01, 1.5), yaw=st.floats(-np.pi, np.pi),
       tilt=st.one_of(st.just(0.0), st.just(5e-324), st.floats(-0.6, 0.6)),
       reach=st.floats(0.0, 6.0))
@example(kind="spiky", seed=1, where="node", fx=0.5, fy=0.5, lift=0.1, yaw=2.0, tilt=0.0, reach=3.0)
@example(kind="stones", seed=5, where="beside", fx=0.0, fy=0.3, lift=0.5, yaw=0.0,
         tilt=2.2250738585072014e-308, reach=6.0)
# a heading along a grid line it starts on: g_end rounds onto the line,
# whose crossing lies past the reach
@example(kind="spiky", seed=0, where="node", fx=0.0, fy=0.296875, lift=1.0, yaw=0.0,
         tilt=0.0, reach=1.0)
def test_polylines_bound_the_surface(kind, seed, where, fx, fy, lift, yaw, tilt, reach):
    hf = _field(kind, seed)
    top = np.array([hf.width - 1, hf.height - 1])
    if where == "node":
        g = np.round(np.array([fx, fy]) * top)
    elif where == "beside":  # up to 1 m past the low x edge or the high y edge
        g = (np.array([-fx / hf.resolution, fy * top[1]]) if seed % 2
             else np.array([fx * top[0], top[1] + fy / hf.resolution]))
    else:
        g = np.array([fx, fy]) * top
    origin = np.array([*(hf.origin + g * hf.resolution), clamped_height(hf, *g) + lift])
    q = quat_multiply(quat_from_rotvec([0.0, 0.0, yaw]), quat_from_rotvec([tilt, 0.5 * tilt, 0.0]))
    mid, spread = _heading_groups(PATTERNS[0].ray_directions @ quat_to_matrix(q).T)
    size, s, b = sensors_mod._polylines(hf, origin, mid, spread, np.full(mid.size, reach))
    off = np.cumsum(size) - size
    ds = np.arange(0.0, reach, hf.resolution / 50)
    for k in range(mid.size):
        sk, bk = s[off[k]:off[k] + size[k]], b[off[k]:off[k] + size[k]]
        assert sk[0] == 0.0 and np.all(np.diff(sk) >= -1e-12)
        chord = np.interp(ds, np.maximum.accumulate(sk), bk)
        for heading in (mid[k] - spread[k], mid[k], mid[k] + spread[k]):
            gx, gy = g[:, None] + ds / hf.resolution * [[np.cos(heading)], [np.sin(heading)]]
            assert np.all(clamped_height(hf, gx, gy) <= chord)


def _last_oracle(hf, origin, dirs, step, n_steps):
    """Each ray's last step in the chunked marcher: every chunk end is
    tested, and the ray ends at the first one past which it cannot reach
    the tile, or at the last step."""
    ends = np.append(np.arange(63, n_steps - 1, 64), n_steps - 1)
    te = (ends + 1) * step
    dx, dy = dirs[:, :1], dirs[:, 1:2]
    gone = _leaving(hf, origin[0] + te * dx, origin[1] + te * dy, dx, dy)
    gone[:, -1] = True
    return ends[gone.argmax(axis=1)]


# the tile's corner nodes are x in {0, 7.95} and y in {-3.975, 3.975}; yaw 0
# gives rays whose y direction is exactly zero, and +-pi/2 rays whose x
# direction is zero to within 1e-16
EDGE_X = [-0.05, 0.0, 7.95, 8.0]
EDGE_Y = [-4.0, -3.975, 3.975, 4.0]


@settings(max_examples=150, deadline=None)
@given(robot=st.sampled_from(list(Robot)), terrain=st.sampled_from(list(TerrainType)),
       level=st.integers(0, 9),
       x=st.one_of(st.floats(-1.5, 9.5), st.sampled_from(EDGE_X)),
       y=st.one_of(st.floats(-5.5, 5.5), st.sampled_from(EDGE_Y)),
       yaw=st.one_of(st.floats(-np.pi, np.pi), st.sampled_from([0.0, np.pi / 2, -np.pi / 2])),
       tilt=st.one_of(st.just(0.0), st.floats(-0.4, 0.4)),
       pattern=st.sampled_from(PATTERNS + [ScanPattern(max_range=0.5),
                                           ScanPattern(max_range=0.64)]))
def test_last_at_tile_exit_within_chunk_oracle(robot, terrain, level, x, y, yaw, tilt, pattern):
    hf = _tile(robot, terrain, level)
    q = quat_multiply(quat_from_rotvec([0.0, 0.0, yaw]), quat_from_rotvec([tilt, 0.5 * tilt, 0.0]))
    origin = np.array([x, y, 1.0])
    dirs = pattern.ray_directions @ quat_to_matrix(q).T
    step = pattern.ray_step
    n_steps = int(pattern.max_range / step)
    _, last = sensors_mod._march_bounds(hf, origin, dirs, step, n_steps)
    # no ray samples more steps than the chunk marcher did
    assert np.all(last <= _last_oracle(hf, origin, dirs, step, n_steps))
    # and every step it drops is off the tile, so no hit is lost (the scan
    # bytes themselves are pinned by test_scan_bytes_match_chunked_oracle)
    ks = np.arange(n_steps)
    ts = (ks + 1) * step
    for rows in np.array_split(np.arange(dirs.shape[0]), 8):  # bounds memory
        d = dirs[rows]
        _, _, ok = grid_coords(hf, origin[0] + ts * d[:, :1], origin[1] + ts * d[:, 1:2])
        assert not (ok & (ks > last[rows, None])).any()


class TestApplyDelay:
    def test_zero_delay(self):
        stream = imu_stream(static_traj(0.05), 200.0)
        out = apply_delay(stream, 0.0)
        assert all(d.delivery_ns == d.item.timestamp_ns for d in out)

    def test_15ms_is_three_ticks_at_200hz(self):
        stream = imu_stream(static_traj(0.05), 200.0)
        out = apply_delay(stream, 15.0)
        tick = 5_000_000
        for d in out:
            assert d.delivery_ns - d.item.timestamp_ns == 3 * tick

    def test_5ms_is_one_tick(self):
        stream = imu_stream(static_traj(0.05), 200.0)
        out = apply_delay(stream, 5.0)
        for d in out:
            assert d.delivery_ns - d.item.timestamp_ns == 5_000_000

    def test_ordering_preserved(self):
        stream = odometry_stream(static_traj(1.0), 10.0)
        out = apply_delay(stream, 7.5)
        deliveries = [d.delivery_ns for d in out]
        assert deliveries == sorted(deliveries)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="delay"):
            apply_delay([], 15.1)


class TestMergeDelivered:
    def test_ties_go_odometry_scan_imu(self):
        odom = odometry_stream(static_traj(0.1), 10.0)
        scans = [LidarScan(p.timestamp_ns, np.zeros((0, 3))) for p in odom]
        imu = imu_stream(static_traj(0.1), 200.0)
        events = merge_delivered(odom, scans, imu)
        assert [k for _, k, _ in events[:3]] == [0, 1, 2]  # all at t = 0
        times = [t for t, _, _ in events]
        assert times == sorted(times)
        assert len(events) == len(odom) + len(scans) + len(imu)

    def test_delivered_unwrapped_and_ordered_by_delivery(self):
        odom = odometry_stream(static_traj(0.1), 10.0)
        imu = imu_stream(static_traj(0.1), 200.0)
        events = merge_delivered(apply_delay(odom, 15.0), imu)
        assert all(not isinstance(item, Delivered) for _, _, item in events)
        first_fix = next(i for i, (_, k, _) in enumerate(events) if k == 0)
        assert events[first_fix][0] == 15_000_000
        assert events[first_fix][2] is odom[0]
        assert [k for _, k, _ in events[:first_fix]] == [1, 1, 1]  # imu at 0, 5, 10 ms

    def test_order_within_a_stream_is_stable(self):
        same_time = [ImuSample(0, np.zeros(3), np.full(3, float(i))) for i in range(5)]
        events = merge_delivered(same_time)
        assert [item for _, _, item in events] == same_time


class TestNoiseConfig:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(gyro_std=-0.1)

    def test_ratio_range(self):
        with pytest.raises(ValueError):
            NoiseConfig(map_noise_ratio=0.2)
