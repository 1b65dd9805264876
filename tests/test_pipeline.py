"""End-to-end replay determinism, log outputs, and the tick benchmark."""

import dataclasses
import itertools
import json
import logging
import math
import socket
import tracemalloc
import weakref
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terraforge.config import PipelineConfig, load_config
from terraforge.fileformats import LOCAL_HEAD, POSE_KEYS, read_jsonl
from terraforge.fusion import PoseFuser, run_fusion
from terraforge.mapping import ElevationMap
from terraforge.observations import ObservationFrame, sample_command
from terraforge import pipeline
from terraforge.pipeline import (
    FOOT_OFFSETS,
    IMU,
    NOMINAL_CONTACT_FORCE,
    ODOMETRY,
    SCAN,
    PipelineInvariantError,
    PipelineResult,
    _policy_ticks,
    _Replay,
    run_bench,
    run_pipeline,
)
from terraforge.rewards import (PlaneFit, RewardInput, RewardWeights, compute_rewards,
                                reward_table)
from terraforge.sensors import Delivered, NoiseConfig, TrajectoryKind, TrajectorySpec
from terraforge.telemetry import LocalMapFragment, RewardMessage, decode_message
from terraforge.terrain import Robot, TerrainSpec, TerrainType, generate, sample_height_vec
from terraforge.geometry import Pose, quat_conjugate, quat_yaw, rotate_vec, vec3

from reference_kinematics import reference_true_state
from reference_records import reference_run


def small_cfg(**kw):
    base = dict(
        trajectory=TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                                  duration=2.0, speed=1.0),
        noise=NoiseConfig(odom_pos_std=0.01),
        seed=3,
    )
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def run_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return run_pipeline(small_cfg(), out), out


LOG_NAMES = ("fused_poses.jsonl", "imu.jsonl", "odometry.jsonl",
             "rewards.jsonl", "trajectory.jsonl", "localmaps.bin",
             "run_summary.json")


class TestRunPipeline:
    def test_all_logs_written(self, run_result):
        _, out = run_result
        for name in LOG_NAMES:
            assert (out / name).exists(), name

    def test_counts(self, run_result):
        res, _ = run_result
        assert res.fused_pose_count == 401  # 2 s at 200 Hz, inclusive
        assert res.policy_tick_count == 401 // 4
        assert res.scan_count == 21  # 2 s at 10 Hz, inclusive
        assert res.rejected_stale == 0

    def test_summary_json_matches(self, run_result):
        res, out = run_result
        on_disk = json.loads((out / "run_summary.json").read_text())
        assert on_disk == res.summary()

    def test_fused_log_timestamps_strictly_increase(self, run_result):
        _, out = run_result
        recs = read_jsonl(out / "fused_poses.jsonl")
        ts = [r["timestamp_ns"] for r in recs]
        assert len(recs) == 401
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_trajectory_log_shape(self, run_result):
        res, out = run_result
        recs = read_jsonl(out / "trajectory.jsonl")
        assert len(recs) == res.policy_tick_count
        for rec in recs[:5]:
            assert len(rec["observation"]) == 45
            assert 0.0 <= rec["fill_ratio"] <= 1.0
            n = np.array(rec["plane_normal"])
            assert abs(np.linalg.norm(n) - 1.0) < 1e-9
            assert rec["body_height"] == pytest.approx(0.4, abs=0.05)

    def test_reward_log_keys(self, run_result):
        res, out = run_result
        recs = read_jsonl(out / "rewards.jsonl")
        assert len(recs) == res.policy_tick_count
        rec = recs[0]
        assert "total" in rec
        assert any(k.startswith("raw_") for k in rec)
        assert any(k.startswith("weighted_") for k in rec)

    def test_local_blob_framing(self, run_result):
        res, out = run_result
        blob = (out / "localmaps.bin").read_bytes()
        per = LOCAL_HEAD.size + 17 * 11 * 4
        assert len(blob) == per * res.policy_tick_count

    def test_deterministic_replay(self, tmp_path):
        cfg = small_cfg()
        r1 = run_pipeline(cfg, tmp_path / "a")
        r2 = run_pipeline(cfg, tmp_path / "b")
        assert r1.summary() == r2.summary()
        for name in LOG_NAMES:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_seed_changes_output(self, tmp_path):
        run_pipeline(small_cfg(seed=3), tmp_path / "a")
        run_pipeline(small_cfg(seed=4), tmp_path / "b")
        a = (tmp_path / "a" / "fused_poses.jsonl").read_bytes()
        b = (tmp_path / "b" / "fused_poses.jsonl").read_bytes()
        assert a != b

    def test_uniform_delay_still_covers_all_imu(self, tmp_path):
        """One delay shifts every stream alike, so the event order and every
        output file are those of no delay."""
        for delay in (0.0, 10.0):
            cfg = small_cfg(noise=NoiseConfig(odom_pos_std=0.01,
                                              system_delay_ms=delay))
            res = run_pipeline(cfg, tmp_path / f"{delay}")
            assert res.fused_pose_count == 401
        for name in LOG_NAMES:
            assert ((tmp_path / "0.0" / name).read_bytes()
                    == (tmp_path / "10.0" / name).read_bytes()), name

    def test_map_noise_path_deterministic(self, tmp_path):
        cfg = small_cfg(noise=NoiseConfig(odom_pos_std=0.01,
                                          map_noise_ratio=0.05))
        run_pipeline(cfg, tmp_path / "a")
        run_pipeline(cfg, tmp_path / "b")
        assert ((tmp_path / "a" / "localmaps.bin").read_bytes()
                == (tmp_path / "b" / "localmaps.bin").read_bytes())

    def test_telemetry_stream(self, tmp_path):
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(2.0)
        port = rx.getsockname()[1]
        cfg = small_cfg(
            trajectory=TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                                      duration=0.5, speed=1.0),
            endpoint=f"127.0.0.1:{port}")
        res = run_pipeline(cfg, tmp_path / "t")
        # pose + one 187-cell fragment + reward, per policy tick
        assert res.telemetry_sent == 3 * res.policy_tick_count
        assert res.telemetry_dropped == 0
        first_batch = [decode_message(rx.recv(2048)) for _ in range(3)]
        rx.close()
        assert isinstance(first_batch[0], Pose)
        assert isinstance(first_batch[1], LocalMapFragment)
        assert first_batch[1].cells.size == 187
        assert isinstance(first_batch[2], RewardMessage)

    def test_result_summary_keys(self):
        res = PipelineResult(out_dir=None, fused_pose_count=1,
                             policy_tick_count=2, scan_count=3,
                             rejected_stale=0, telemetry_sent=0,
                             telemetry_dropped=0)
        assert set(res.summary()) == {
            "fused_pose_count", "policy_tick_count", "scan_count",
            "rejected_stale", "telemetry_sent", "telemetry_dropped"}


class TestRunLogging:
    def test_one_info_line_per_run(self, tmp_path, caplog):
        cfg = small_cfg(trajectory=TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                                                  duration=0.5, speed=1.0))
        with caplog.at_level(logging.DEBUG, logger="terraforge.pipeline"):
            run_pipeline(cfg, tmp_path / "r")
        records = [r for r in caplog.records if r.name == "terraforge.pipeline"]
        assert [r.levelno for r in records] == [logging.INFO]  # nothing rejected
        assert records[0].getMessage() == (
            f"run to {tmp_path / 'r'}: 101 fused poses, 25 policy ticks, 6 scans, "
            f"0 rejected_stale, 0 skipped_imu, 0 reseeds")

    STALE_AND_RESEED = [
        ("terraforge.fusion", logging.DEBUG, "rejected stale odometry fix at 400000000 ns"),
        ("terraforge.fusion", logging.DEBUG,
         "re-seeded the filter from the odometry fix at 600000000 ns")]

    @staticmethod
    def _half_second_replay():
        return _Replay(small_cfg(trajectory=TrajectorySpec(
            kind=TrajectoryKind.CONSTANT_VELOCITY, duration=0.5, speed=1.0)))

    def test_debug_line_per_stale_fix_and_reseed(self, caplog):
        replay = self._half_second_replay()
        for _, kind, item in replay.pop_events():
            replay.step(kind, item)
        fix = replay.odom[-1]  # the state is at 500 ms, the window is 50 ms
        with caplog.at_level(logging.DEBUG, logger="terraforge.fusion"):
            replay.step(ODOMETRY, Pose(fix.position, fix.orientation, 400_000_000))
            replay.step(ODOMETRY, Pose(fix.position, fix.orientation, 600_000_000))
        assert [(r.name, r.levelno, r.getMessage())
                for r in caplog.records] == self.STALE_AND_RESEED
        stats = replay.fuser.stats
        assert (stats.rejected_stale, stats.reseeds) == (1, 1)

    def test_run_fusion_logs_the_same_debug_lines(self, caplog):
        replay = self._half_second_replay()
        fix = replay.odom[-1]
        # delivered with the last fix, when the state is at 495 ms; then
        # 100 ms past the last IMU sample
        late = [Delivered(500_000_000, Pose(fix.position, fix.orientation, 400_000_000)),
                Pose(fix.position, fix.orientation, 600_000_000)]
        fuser = PoseFuser()
        with caplog.at_level(logging.DEBUG, logger="terraforge.fusion"):
            run_fusion(replay.imu, [*replay.odom, *late], fuser=fuser)
        assert [(r.name, r.levelno, r.getMessage())
                for r in caplog.records] == self.STALE_AND_RESEED
        assert (fuser.stats.rejected_stale, fuser.stats.reseeds) == (1, 1)


class TestRunBench:
    def test_report_structure(self):
        rep = run_bench(iters=50)
        assert rep.iters == 50
        assert set(rep.stage_p50_ms) == {"fusion_step", "scan_amortized",
                                         "local_extract", "reward_eval"}
        assert rep.total_p99_ms >= rep.total_p50_ms > 0.0
        for k in rep.stage_p50_ms:
            assert rep.stage_p99_ms[k] >= rep.stage_p50_ms[k] >= 0.0

    def test_render(self):
        rep = run_bench(iters=20)
        text = rep.render()
        assert "tick total" in text
        assert "budget" in text
        assert ("within" in text) == rep.within_budget

    def test_policy_tick_stages_over_the_ticks_that_ran_them(self):
        """local_extract runs on one tick in four; its p50 is over those."""
        rep = run_bench(PipelineConfig(), iters=200)
        assert rep.stage_p50_ms["local_extract"] > 0.0
        assert rep.stage_p50_ms["scan_amortized"] > 0.0

    def test_each_tick_carries_a_share_of_its_run(self, monkeypatch):
        """One row per IMU tick. Every tick of a run of IMU samples carries
        an equal share of the run's filter step and fused-pose rows, the
        first also the odometry updates before the run; local_extract and
        the plane-fit rewards stay on the policy tick that ran them. Each
        lap reads 1 us on a clock that steps 1 us per reading."""
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(
            perf_counter_ns=itertools.count(0, 1000).__next__))
        cfg = small_cfg(trajectory=TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0))
        replay = _Replay(cfg)
        fusion, rows, carried = [], [], 0
        for _, kind, item in replay.pop_events():
            if kind == ODOMETRY:
                carried += 1
            elif kind == IMU:
                n = len(item)
                fusion += [1 / n + carried] + [1 / n] * (n - 1)
                rows += [1 / n] * n
                carried = 0
        iters = len(replay.imu)
        tpp = cfg.ticks_per_policy
        policy = (np.arange(iters) + 1) % tpp == 0

        ticks = pipeline._bench_ticks(cfg, iters) * 1e3  # us
        assert ticks.shape == (iters, 4) and len(fusion) == iters
        stage = dict(zip(("fusion_step", "scan_amortized", "local_extract", "reward_eval"),
                         ticks.T))
        np.testing.assert_allclose(stage["fusion_step"], fusion, rtol=1e-12)
        np.testing.assert_allclose(stage["reward_eval"], np.add(rows, policy), rtol=1e-12)
        assert np.array_equal(np.isnan(stage["local_extract"]), ~policy)
        assert (stage["local_extract"][policy] == 1.0).all()
        np.testing.assert_allclose(stage["scan_amortized"], cfg.lidar_hz / cfg.imu_hz,
                                   rtol=1e-12)

    @pytest.mark.parametrize("lidar_hz", [400, 30])
    def test_each_scan_lands_on_the_ticks_that_follow_it(self, monkeypatch, lidar_hz):
        """A scan's cost is shared among the imu_hz // lidar_hz ticks (at
        least one) delivered after it, whether or not lidar_hz divides
        imu_hz; only the share past the stream's last tick is dropped. Each
        lap reads 1 us on a clock that steps 1 us per reading."""
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(
            perf_counter_ns=itertools.count(0, 1000).__next__))
        cfg = small_cfg(trajectory=TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 0.5),
                        lidar_hz=lidar_hz)
        replay = _Replay(cfg)
        iters, per_scan = len(replay.imu), max(1, cfg.imu_hz // lidar_hz)
        expected, delivered, scans, dropped = np.full(iters, np.nan), 0, 0, 0.0
        for _, kind, item in replay.pop_events():
            if kind == SCAN:
                share = expected[delivered:delivered + per_scan]
                share[np.isnan(share)] = 0.0
                share += 1 / per_scan
                scans += 1
                dropped += max(0, delivered + per_scan - iters) / per_scan
            elif kind == IMU:
                delivered += len(item)

        scan_us = pipeline._bench_ticks(cfg, iters)[:, 1] * 1e3
        np.testing.assert_allclose(scan_us, expected, rtol=1e-12)
        assert scans == int(0.5 * lidar_hz) + 1
        assert np.nansum(scan_us) == pytest.approx(scans - dropped, rel=1e-12)

    def test_within_budget_flag(self):
        rep = run_bench(iters=20, budget_ms=1e9)
        assert rep.within_budget
        rep2 = run_bench(iters=20, budget_ms=1e-9)
        assert not rep2.within_budget


class TestBenchDrivesTheReplay:
    def test_bench_maps_at_the_replay_poses_and_recenters(self, tmp_path, monkeypatch):
        iters = 200  # 1 s at 200 Hz, the whole trajectory below
        cfg = PipelineConfig(trajectory=TrajectorySpec(
            kind=TrajectoryKind.CONSTANT_VELOCITY, duration=1.0, speed=1.0))
        extracted, shifts = [], []
        extract_local, recenter = ElevationMap.extract_local, ElevationMap.recenter

        def spy_extract(self, pose, spec=None):
            extracted.append(pose)
            return extract_local(self, pose, spec)

        def spy_recenter(self, center_xy):
            shifts.append(recenter(self, center_xy))
            return shifts[-1]

        monkeypatch.setattr(ElevationMap, "extract_local", spy_extract)
        monkeypatch.setattr(ElevationMap, "recenter", spy_recenter)
        run_bench(cfg, iters=iters, budget_ms=1e9)
        monkeypatch.undo()

        assert any(k != (0, 0) for k in shifts)
        run_pipeline(cfg, tmp_path)
        fused = read_jsonl(tmp_path / "fused_poses.jsonl")
        policy = fused[cfg.ticks_per_policy - 1::cfg.ticks_per_policy]
        assert len(extracted) == iters // cfg.ticks_per_policy == len(policy)
        assert [(p.timestamp_ns, *p.position.tolist(), *p.orientation)
                for p in extracted] == [tuple(rec[k] for k in POSE_KEYS) for rec in policy]

    def test_every_benched_scan_has_points(self, monkeypatch):
        # 2,000 ticks are 10 s at 200 Hz, twice the default 5 s run; a
        # trajectory stretched to 10 s at 1 m/s would leave the 8 m tile
        points = []
        integrate_scan = ElevationMap.integrate_scan

        def spy_integrate(self, scan, pose):
            points.append(len(scan.points))
            return integrate_scan(self, scan, pose)

        monkeypatch.setattr(ElevationMap, "integrate_scan", spy_integrate)
        run_bench(PipelineConfig(), iters=2000, budget_ms=1e9)
        assert points and min(points) > 0

    def test_iters_must_be_positive(self):
        with pytest.raises(ValueError, match="iters"):
            run_bench(iters=0)


def test_invariant_error_is_runtime_error():
    assert issubclass(PipelineInvariantError, RuntimeError)


def reference_reward_frame(cfg, hf, state, command):
    """One policy tick's reward input as first built, tick by tick."""
    q = state.pose.orientation
    v_body = rotate_vec(quat_conjugate(q), state.velocity)
    gravity_body = rotate_vec(quat_conjugate(q), vec3(0, 0, -1.0))
    yaw = quat_yaw(q)
    c, s = np.cos(yaw), np.sin(yaw)
    feet_xy = state.pose.position[:2] + FOOT_OFFSETS @ np.array([[c, s], [-s, c]])
    xy = np.vstack([state.pose.position[:2], feet_xy])
    h, on_tile = sample_height_vec(hf, xy[:, 0], xy[:, 1])
    ground = np.where(on_tile, h, 0.0)
    forces = np.zeros((4, 3))
    forces[:, 2] = NOMINAL_CONTACT_FORCE
    zeros12 = np.zeros(12)
    return RewardInput(
        v_world=state.velocity, v_body_xy=v_body[:2], v_z=float(state.velocity[2]),
        omega=state.angular_velocity, gravity_body=gravity_body, yaw=yaw,
        joint_acc=zeros12, body_height=float(state.pose.position[2] - ground[0]),
        desired_height=cfg.desired_height, action=zeros12, prev_action=zeros12,
        prev_prev_action=zeros12, hip_angles=np.zeros(4), hip_angles_desired=np.zeros(4),
        foot_positions=np.column_stack([feet_xy, ground[1:]]), foot_contact_forces=forces,
        command=command, terrain_type=cfg.terrain.terrain_type)


@lru_cache(maxsize=None)
def _tile(terrain, level, robot):
    return generate(TerrainSpec(terrain, level, robot))


@st.composite
def trajectories(draw):
    kind = draw(st.sampled_from(list(TrajectoryKind)))
    return TrajectorySpec(
        kind=kind, duration=draw(st.floats(0.05, 4.0)),
        height_above_ground=draw(st.floats(0.2, 1.0)), speed=draw(st.floats(0.0, 3.0)),
        radius=draw(st.floats(0.3, 5.0)), amplitude=draw(st.floats(0.0, 0.3)),
        frequency=draw(st.floats(0.1, 3.0)))


class TestPolicyTickTable:
    @given(st.sampled_from(list(TerrainType)), st.sampled_from([0, 4, 9]),
           st.sampled_from(list(Robot)), trajectories(),
           st.floats(-20.0, 20.0), st.floats(0.0, 0.3), st.floats(0.0, 0.5),
           st.integers(0, 2**32 - 1), st.floats(-0.9, 0.9))
    @settings(max_examples=40, deadline=None)
    # runs off the far end of the tile, where the ground is the base plane
    @example(TerrainType.SLOPE, 9, Robot.X30, TrajectorySpec(
        TrajectoryKind.CONSTANT_VELOCITY, 4.0, speed=3.0), -10.0, 0.05, 0.4, 7, 0.2)
    # near the gap edges at walking pace, where feet_edge counts
    @example(TerrainType.GAP, 9, Robot.LITE3, TrajectorySpec(
        TrajectoryKind.CONSTANT_VELOCITY, 4.0, speed=1.0), -10.0, 0.05, 0.4, 7, 0.2)
    def test_rows_bit_equal_to_tick_by_tick(self, terrain, level, robot, traj, weight,
                                            margin, desired, seed, s):
        """Each tick's reward record, yaw, body height and observation
        equal the tick-by-tick build's, byte for byte."""
        weights = RewardWeights(roll=weight, feet_edge_gap=weight, feet_edge_platform=-weight,
                                body_height=weight / 3, edge_margin=margin)
        cfg = PipelineConfig(terrain=TerrainSpec(terrain, level, robot), trajectory=traj,
                             weights=weights, desired_height=desired)
        hf = _tile(terrain, level, robot)
        command = sample_command(terrain, seed)
        stamps = [round(i * 1e9 / cfg.imu_hz)
                  for i in range(cfg.ticks_per_policy - 1,
                                 math.floor(traj.duration * cfg.imu_hz) + 1,
                                 cfg.ticks_per_policy)]
        ticks = _policy_ticks(cfg, hf, command, stamps)
        fit = PlaneFit(np.array([s, 0.0, math.sqrt(1 - s * s)]), np.zeros(3), 0.0)
        assert len(ticks.rewards.raw) == len(stamps)
        for i, ts in enumerate(stamps):
            inp = reference_reward_frame(cfg, hf, reference_true_state(traj, ts * 1e-9),
                                         command)
            want = compute_rewards(reward_table(inp, weights, hf), 0, fit)
            got = compute_rewards(ticks.rewards, i, fit)
            assert json.dumps(got) == json.dumps(want)
            assert json.dumps([ticks.yaw[i], ticks.body_height[i]]) == json.dumps(
                [inp.yaw, inp.body_height])
            frame = ObservationFrame(
                omega=inp.omega, gravity=inp.gravity_body, command=command,
                joint_angles=np.zeros(12), joint_velocities=np.zeros(12),
                prev_action=np.zeros(12))
            assert json.dumps(ticks.observations[i].tolist()) == json.dumps(
                [float(v) for v in frame.flatten()])

    def test_gap_policy_table_stays_small(self):
        """The table of a 20 s gap crossing (1,000 ticks, 640 edge cells)
        is built without a ticks x feet x edges distance matrix (20 MB)."""
        cfg = PipelineConfig(
            terrain=TerrainSpec(TerrainType.GAP, 9),
            trajectory=TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 20.0, speed=0.25))
        hf = _tile(TerrainType.GAP, 9, Robot.LITE3)
        assert hf.edge_xy(cfg.weights.grad_threshold)[0].size == 640
        command = sample_command(TerrainType.GAP, 0)
        stamps = [round(i * 1e9 / cfg.imu_hz) for i in range(3, 4001, 4)]
        tracemalloc.start()
        try:
            ticks = _policy_ticks(cfg, hf, command, stamps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ticks.rewards.raw) == 1000
        assert ticks.rewards.raw[:, -2].any()  # some feet do come near an edge
        assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"

    def test_tick_at_an_unexpected_time_is_an_invariant_error(self):
        replay = _Replay(small_cfg())
        replay.ticks.timestamps_ns[0] += 1
        with pytest.raises(PipelineInvariantError, match="policy tick 0"):
            for _, kind, item in replay.pop_events():
                replay.step(kind, item)


@st.composite
def short_configs(draw):
    """Short replays over terrain, map noise, delay, LiDAR rate, seed and a
    duration on the 0.05 s grid."""
    noisy = draw(st.booleans())
    noise = NoiseConfig(
        gyro_std=0.01 if noisy else 0.0, accel_std=0.05 if noisy else 0.0,
        odom_pos_std=0.01, odom_yaw_std=0.005 if noisy else 0.0,
        lidar_range_std=0.01 if noisy else 0.0,
        map_noise_ratio=draw(st.sampled_from([0.0, 0.05])),
        system_delay_ms=draw(st.sampled_from([0.0, 2.5, 10.0, 15.0])))
    traj = TrajectorySpec(kind=draw(st.sampled_from(list(TrajectoryKind))),
                          duration=round(draw(st.integers(2, 30)) * 0.05, 2),
                          height_above_ground=1.5, speed=draw(st.sampled_from([0.25, 1.0])))
    return PipelineConfig(
        terrain=TerrainSpec(draw(st.sampled_from(list(TerrainType))), draw(st.integers(0, 9))),
        trajectory=traj, noise=noise, lidar_hz=draw(st.sampled_from([2, 5, 10])),
        seed=draw(st.integers(0, 2**16)))


class TestLogsFromRows:
    @given(cfg=short_configs())
    @settings(max_examples=25, deadline=None)
    # the golden gap crossing, cut short: delay, map noise, sensor noise
    @example(cfg=PipelineConfig(
        terrain=TerrainSpec(TerrainType.GAP, 9),
        trajectory=TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 0.5, speed=0.25),
        noise=NoiseConfig(gyro_std=0.01, accel_std=0.05, odom_pos_std=0.01,
                          odom_yaw_std=0.005, lidar_range_std=0.01, system_delay_ms=10,
                          map_noise_ratio=0.05),
        lidar_hz=2, seed=7))
    # a local map whose best-fit plane is vertical: normal (0, 1, 0)
    @example(cfg=PipelineConfig(
        trajectory=TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 0.15,
                                  height_above_ground=1.5, speed=1.0),
        noise=NoiseConfig(odom_pos_std=0.01), lidar_hz=2, seed=6))
    def test_seven_files_equal_the_per_event_records(self, cfg, tmp_path_factory):
        """What run_pipeline writes from its rows is byte for byte what the
        per-event record path writes."""
        tmp = tmp_path_factory.mktemp("rows")
        reference_run(cfg, tmp / "ref")
        run_pipeline(cfg, tmp / "rows")
        for name in LOG_NAMES:
            assert (tmp / "rows" / name).read_bytes() == (tmp / "ref" / name).read_bytes(), name

    def test_replay_holds_rows_not_records(self):
        replay = _Replay(small_cfg())
        for _, kind, item in replay.pop_events():
            replay.step(kind, item)
        for name, value in vars(replay).items():
            assert not (isinstance(value, list) and value and isinstance(value[0], dict)), name
        assert replay.fused.shape == (replay.imu_count, 7)
        assert replay.tick_rows.shape[0] == replay.policy_count

    def test_each_scan_is_freed_once_integrated(self):
        replay = _Replay(small_cfg())
        events = list(replay.events)
        scans = [weakref.ref(item) for _, kind, item in events if kind == SCAN]
        assert len(scans) == 21
        seen = []  # (kind, payload) of each event taken, each IMU run's samples apart
        for _, kind, item in replay.pop_events():
            seen += [(IMU, s) for s in item] if kind == IMU else [(kind, item)]
            replay.step(kind, item)
            assert len(replay.events) == len(events) - len(seen)
        assert seen == [(kind, item) for _, kind, item in events]
        del events, seen, item
        assert replay.scan_count == 21 and all(ref() is None for ref in scans)


GAP_POLICY_INI = Path(__file__).parent.parent / "perfbench" / "workloads" / "gap_policy.ini"


class TestMemoryBudget:
    # MB per simulated second: 0.73 when every event was kept as a dict,
    # 0.29 with the logs kept as rows
    GROWTH_BOUND = 0.45

    def _peak(self, cfg, seconds, out):
        cfg = dataclasses.replace(
            cfg, trajectory=dataclasses.replace(cfg.trajectory, duration=seconds))
        tracemalloc.start()
        try:
            run_pipeline(cfg, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gap_policy_heap_growth_per_simulated_second(self, tmp_path):
        """The heap peak of a gap_policy replay (no telemetry) grows less
        than GROWTH_BOUND MB per simulated second from 5 s to 10 s."""
        cfg = load_config(GAP_POLICY_INI)
        assert cfg.endpoint is None
        # the first replay in a process also fills the per-process caches
        # (filter matrices, the terrain's edge field); keep them out of both
        self._peak(cfg, 1.0, tmp_path / "warm")
        short = self._peak(cfg, 5.0, tmp_path / "short")
        long = self._peak(cfg, 10.0, tmp_path / "long")
        growth = (long - short) / 5.0 / 1e6
        assert growth < self.GROWTH_BOUND, (
            f"{growth:.2f} MB/s (peaks {short / 1e6:.2f}, {long / 1e6:.2f} MB)")
