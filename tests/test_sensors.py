"""Sensor stream synthesis tests: IMU, odometry, lidar, delay injection."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import terraforge.sensors as sensors_mod
from terraforge.geometry import GRAVITY, Pose, quat_from_rotvec, quat_multiply, quat_to_matrix
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
from terraforge.terrain import (Robot, TerrainSpec, TerrainType, generate, sample_height,
                                sample_height_vec)


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


def _chunked_scan(hf, pose, pattern, noise, seed):
    """Oracle: the plain marcher, every ray from t = 0 in 64-step chunks."""
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
        exited = ~ok[:, -1] & ~crossed
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
        # 1e-5 m above one of the block maxima over the local ground, the
        # height at which the marcher's descent into such a block stops
        maxes = np.unique(hf.block_max)
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

# poses whose rays descend into a block they do not clear: near-vertical rays
# from high above a low stair tread whose block holds the next riser, a sensor
# on a tread 1e-5 m above the next tread's block max, and a tilted sensor over
# a platform edge
DESCENT_POSES = [
    dict(robot=Robot.LITE3, terrain=TerrainType.STAIRS, level=5, x=1.27, y=0.1,
         height="above_top", lift=0.5, yaw=0.0, tilt=0.03, pattern=PATTERNS[0]),
    dict(robot=Robot.LITE3, terrain=TerrainType.STAIRS, level=5, x=1.1, y=0.1,
         height="on_block", lift=0.125, yaw=0.3, tilt=0.0, pattern=PATTERNS[0]),
    dict(robot=Robot.X30, terrain=TerrainType.HIGH_PLATFORM, level=9, x=3.98, y=0.3,
         height="above_top", lift=0.3, yaw=np.pi, tilt=0.2, pattern=PATTERNS[0]),
]


def descent_examples(**extra):
    def add(test):
        for pose in DESCENT_POSES:
            test = example(**pose, **extra)(test)
        return test
    return add


class TestMarcherEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(**SENSOR_POSES, range_std=st.sampled_from([0.0, 0.01]))
    @descent_examples(range_std=0.0)
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

    @settings(max_examples=30, deadline=None)
    @given(**SENSOR_POSES)
    @descent_examples()
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

    # bounds about 20% above what these trajectories measure (5.25 slope,
    # 16.9 stairs, 8.4 gap, 7.5 platform samples per hit), so a marcher that
    # restarts sampling at the edge of the block that stops a ray, instead of
    # where the ray comes down to that block's max, fails (9.4, 41, 14, 30)
    @pytest.mark.parametrize("terrain, level, height, bound", [
        (TerrainType.SLOPE, 0, 0.4, 6.3), (TerrainType.STAIRS, 5, 1.5, 20),
        (TerrainType.GAP, 9, 0.4, 10), (TerrainType.HIGH_PLATFORM, 5, 0.9, 9)])
    def test_few_samples_per_hit(self, monkeypatch, terrain, level, height, bound):
        hf = generate(TerrainSpec(terrain, level))
        samples = []

        def counting(hf_, xs, ys):
            samples.append(np.size(xs))
            return sample_height_vec(hf_, xs, ys)

        monkeypatch.setattr(sensors_mod, "sample_height_vec", counting)
        traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 5.0, speed=1.0,
                              height_above_ground=height)
        hits = sum(lidar_scan(hf, true_state(traj, t).pose).points.shape[0]
                   for t in np.arange(0.0, 5.01, 0.5))
        assert hits > 0
        assert sum(samples) / hits < bound


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
