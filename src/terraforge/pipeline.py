"""End-to-end replay: terrain -> synthetic sensors -> fusion -> mapping ->
rewards, plus the per-tick latency benchmark.

Replay is virtual-time and event-driven; (config, seed) determines every
output byte. One _Replay object holds the event loop's stages: run_pipeline
drives it and writes the logs, and run_bench drives the same stages over
back-to-back replays with a wall-clock timer between them, spreading each
scan's cost over the ticks between scans. Only run_bench reads the clock.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .fileformats import (encode_local_map, imu_record, pose_record, write_jsonl)
from .fusion import PoseFuser
from .geometry import Pose, quat_conjugate, quat_yaw, rotate_vec, vec3
from .mapping import ElevationMap, inject_map_noise
from .observations import ObservationFrame, sample_command
from .rewards import RewardInput, compute_rewards, fit_plane
from .sensors import (apply_delay, imu_stream, lidar_scan, merge_delivered,
                      odometry_stream, true_state)
from .terrain import generate, sample_height_vec
from . import telemetry

log = logging.getLogger(__name__)

# nominal stance footprint (x forward, y left) used to place feet for the
# contact-derived reward terms; no leg kinematics are simulated
FOOT_OFFSETS = np.array([
    [0.2, 0.15], [0.2, -0.15], [-0.2, 0.15], [-0.2, -0.15],
])
NOMINAL_CONTACT_FORCE = 30.0  # N per foot


class PipelineInvariantError(RuntimeError):
    """A structural guarantee of the replay was violated."""


@dataclass
class PipelineResult:
    out_dir: Path
    fused_pose_count: int
    policy_tick_count: int
    scan_count: int
    rejected_stale: int
    telemetry_sent: int
    telemetry_dropped: int

    def summary(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "out_dir"}


def _seeds(seed: int, n: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


def _reward_frame(cfg: PipelineConfig, hf, state, command):
    q = state.pose.orientation
    v_body = rotate_vec(quat_conjugate(q), state.velocity)
    gravity_body = rotate_vec(quat_conjugate(q), vec3(0, 0, -1.0))
    yaw = quat_yaw(q)
    c, s = np.cos(yaw), np.sin(yaw)
    feet_xy = state.pose.position[:2] + FOOT_OFFSETS @ np.array([[c, s], [-s, c]])
    # ground under the body, then under each foot; off the tile: base plane
    xy = np.vstack([state.pose.position[:2], feet_xy])
    h, on_tile = sample_height_vec(hf, xy[:, 0], xy[:, 1])
    ground = np.where(on_tile, h, 0.0)
    feet = np.column_stack([feet_xy, ground[1:]])
    forces = np.zeros((4, 3))
    forces[:, 2] = NOMINAL_CONTACT_FORCE
    zeros12 = np.zeros(12)
    return RewardInput(
        v_world=state.velocity,
        v_body_xy=v_body[:2],
        v_z=float(state.velocity[2]),
        omega=state.angular_velocity,
        gravity_body=gravity_body,
        yaw=yaw,
        joint_acc=zeros12,
        body_height=float(state.pose.position[2] - ground[0]),
        desired_height=cfg.desired_height,
        action=zeros12, prev_action=zeros12, prev_prev_action=zeros12,
        hip_angles=np.zeros(4), hip_angles_desired=np.zeros(4),
        foot_positions=feet,
        foot_contact_forces=forces,
        command=command,
        terrain_type=cfg.terrain.terrain_type,
    )


ODOMETRY, SCAN, IMU = range(3)  # event stream indices, in tie order


class _Replay:
    """One replay's inputs, filter, map and logs, and the handling of each
    delivered event, stage by stage.

    step() calls lap(stage) as each stage ends: "odometry", "scan"
    (recenter + integrate), "fusion", "local_map", "reward" and "record"
    (log records and telemetry).
    """

    def __init__(self, cfg: PipelineConfig, endpoint: str | None = None):
        self.cfg = cfg
        self.hf = generate(cfg.terrain)
        s_imu, s_odom, s_lidar, s_cmd, self.s_mapnoise = _seeds(cfg.seed, 5)
        self.command = sample_command(cfg.terrain.terrain_type, s_cmd)

        self.imu = imu_stream(cfg.trajectory, cfg.imu_hz, cfg.noise, s_imu)
        self.odom = odometry_stream(cfg.trajectory, cfg.odom_hz, cfg.noise, s_odom)
        # noise-free odometry at the LiDAR rate: the true pose of each scan
        scans = [lidar_scan(self.hf, pose, cfg.scan_pattern, cfg.noise, s_lidar + i)
                 for i, pose in enumerate(odometry_stream(cfg.trajectory, cfg.lidar_hz))]
        # odometry first on delivery ties so the filter seeds before the
        # co-timed IMU sample, scans before the IMU tick that reads them
        delay = cfg.noise.system_delay_ms
        self.events = merge_delivered(apply_delay(self.odom, delay),
                                      apply_delay(scans, delay),
                                      apply_delay(self.imu, delay))

        self.emap = ElevationMap(cfg.map_size, cfg.map_resolution)
        self.fuser = PoseFuser(cfg.fusion)
        self.fused_records, self.imu_records, self.reward_records = [], [], []
        self.trajectory_records, self.local_blobs = [], []
        self.imu_count = self.policy_count = self.scan_count = 0
        self.streamer = telemetry.UdpStreamer(endpoint) if endpoint else None

    def step(self, kind: int, item, lap=lambda stage: None) -> None:
        """Handle one delivered event. Scans and IMU samples delivered
        before the first odometry fix are dropped; an IMU sample counts as
        skipped_imu."""
        fuser = self.fuser
        if kind == ODOMETRY:
            reseeds = fuser.stats.reseeds
            if not fuser.handle_odometry(item):
                log.debug("rejected stale odometry fix at %d ns", item.timestamp_ns)
            elif fuser.stats.reseeds != reseeds:
                log.debug("re-seeded the filter from the odometry fix at %d ns",
                          item.timestamp_ns)
            lap("odometry")
            return
        if fuser.state is None:
            if kind == IMU:
                fuser.stats.skipped_imu += 1
            return
        if kind == SCAN:
            pose = fuser.state.pose()
            scan_pose = Pose(pose.position, pose.orientation, item.timestamp_ns)
            self.emap.recenter(scan_pose.position[:2])
            self.emap.integrate_scan(item, scan_pose)
            self.scan_count += 1
            lap("scan")
            return

        fused = fuser.handle_imu(item)
        self.imu_count += 1
        lap("fusion")
        if self.imu_count % self.cfg.ticks_per_policy == 0:
            self._policy_tick(item.timestamp_ns, fused, lap)
        self.fused_records.append(pose_record(fused))
        self.imu_records.append(imu_record(item))
        lap("record")

    def _policy_tick(self, ts: int, fused: Pose, lap) -> None:
        cfg = self.cfg
        self.policy_count += 1
        local = self.emap.extract_local(fused, cfg.local_map)
        if cfg.noise.map_noise_ratio > 0:
            local = inject_map_noise(local, cfg.noise.map_noise_ratio,
                                     cfg.noise.map_noise_magnitude,
                                     self.s_mapnoise + self.policy_count)
        expected = cfg.local_map.samples_x * cfg.local_map.samples_y
        if local.heights.size != expected:
            raise PipelineInvariantError(
                f"local map has {local.heights.size} samples, expected {expected}")
        lap("local_map")

        fit = fit_plane(local.to_points())
        state = true_state(cfg.trajectory, ts * 1e-9)
        rin = _reward_frame(cfg, self.hf, state, self.command)
        breakdown = compute_rewards(rin, fit, cfg.weights, terrain=self.hf)
        lap("reward")

        self.reward_records.append(breakdown.as_record(ts))
        frame = ObservationFrame(
            omega=rin.omega, gravity=rin.gravity_body, command=self.command,
            joint_angles=np.zeros(12), joint_velocities=np.zeros(12),
            prev_action=np.zeros(12))
        self.trajectory_records.append({
            "timestamp_ns": ts, "yaw": rin.yaw, "body_height": rin.body_height,
            "fill_ratio": local.fill_ratio,
            "plane_normal": [float(v) for v in fit.normal],
            "observation": [float(v) for v in frame.flatten()]})
        self.local_blobs.append(encode_local_map(local.heights, local.resolution))
        if self.streamer is not None:
            self.streamer.send(telemetry.encode_pose(fused))
            for frag in telemetry.encode_local_map(ts, local.heights, local.resolution):
                self.streamer.send(frag)
            self.streamer.send(telemetry.encode_reward(
                ts, list(breakdown.weighted.values())))


def run_pipeline(cfg: PipelineConfig, out_dir) -> PipelineResult:
    """Replay the configured scenario and write all logs under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replay = _Replay(cfg, cfg.endpoint)
    streamer = replay.streamer
    try:
        for _, kind, item in replay.events:
            replay.step(kind, item)
    finally:
        if streamer is not None:
            streamer.close()

    imu_count, policy_count = replay.imu_count, replay.policy_count
    if imu_count != len(replay.imu):
        raise PipelineInvariantError(
            f"produced {imu_count} fused poses for {len(replay.imu)} imu samples")
    if policy_count != imu_count // cfg.ticks_per_policy:
        raise PipelineInvariantError(
            f"{policy_count} policy ticks for {imu_count} fused poses")

    write_jsonl(replay.fused_records, out / "fused_poses.jsonl")
    write_jsonl(replay.imu_records, out / "imu.jsonl")
    write_jsonl([pose_record(p) for p in replay.odom], out / "odometry.jsonl")
    write_jsonl(replay.reward_records, out / "rewards.jsonl")
    write_jsonl(replay.trajectory_records, out / "trajectory.jsonl")
    (out / "localmaps.bin").write_bytes(b"".join(replay.local_blobs))
    result = PipelineResult(
        out_dir=out,
        fused_pose_count=imu_count,
        policy_tick_count=policy_count,
        scan_count=replay.scan_count,
        rejected_stale=replay.fuser.stats.rejected_stale,
        telemetry_sent=streamer.sent if streamer else 0,
        telemetry_dropped=streamer.dropped if streamer else 0,
    )
    (out / "run_summary.json").write_text(
        json.dumps(result.summary(), indent=2) + "\n")
    stats = replay.fuser.stats
    log.info("run to %s: %d fused poses, %d policy ticks, %d scans, %d rejected_stale, "
             "%d skipped_imu, %d reseeds", out, imu_count, policy_count,
             replay.scan_count, stats.rejected_stale, stats.skipped_imu, stats.reseeds)
    return result


@dataclass
class BenchReport:
    iters: int
    budget_ms: float
    stage_p50_ms: dict[str, float]
    stage_p99_ms: dict[str, float]
    total_p50_ms: float
    total_p99_ms: float

    @property
    def within_budget(self) -> bool:
        return self.total_p99_ms < self.budget_ms

    def render(self) -> str:
        lines = [f"{'stage':<18}{'p50 ms':>10}{'p99 ms':>10}"]
        for name in self.stage_p50_ms:
            lines.append(f"{name:<18}{self.stage_p50_ms[name]:>10.3f}"
                         f"{self.stage_p99_ms[name]:>10.3f}")
        lines.append(f"{'tick total':<18}{self.total_p50_ms:>10.3f}"
                     f"{self.total_p99_ms:>10.3f}")
        verdict = "within" if self.within_budget else "OVER"
        lines.append(f"budget {self.budget_ms:.1f} ms/tick: {verdict}"
                     f" (iters={self.iters})")
        return "\n".join(lines)


# replay stage -> bench stage: odometry updates are filter work, and a
# tick's log records count with the reward work they report
_BENCH_STAGES = {"odometry": "fusion_step", "fusion": "fusion_step",
                 "scan": "scan_amortized", "local_map": "local_extract",
                 "reward": "reward_eval", "record": "reward_eval"}


def run_bench(cfg: PipelineConfig | None = None, iters: int = 10000,
              budget_ms: float = 5.0) -> BenchReport:
    """Wall-clock latency of the replay's own stages, per IMU tick.

    Replays the configured scenario back to back, each replay the one
    run_pipeline makes (same seeds, duration and events, so it stays on the
    terrain) but with no telemetry and no files, until iters IMU ticks are
    timed. A tick is charged the odometry updates delivered since the tick
    before it, and the cost of the scan before it spread over the ticks
    between scans.
    """
    cfg = cfg or PipelineConfig()
    if iters < 1:
        raise ValueError("iters must be >= 1")
    ticks_per_scan = max(1, cfg.imu_hz // cfg.lidar_hz)
    pending = dict.fromkeys(_BENCH_STAGES.values(), 0)  # ns since the last tick
    rows = []
    mark = 0

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter_ns()
        pending[_BENCH_STAGES[stage]] += now - mark
        mark = now

    while len(rows) < iters:
        replay, done, scan_ns = _Replay(cfg), len(rows), 0
        for _, kind, item in replay.events:
            mark = time.perf_counter_ns()
            replay.step(kind, item, lap)
            if kind == SCAN:
                scan_ns, pending["scan_amortized"] = pending["scan_amortized"], 0
            elif done + replay.imu_count > len(rows):
                pending["scan_amortized"] = scan_ns / ticks_per_scan
                rows.append(list(pending.values()))
                pending.update(dict.fromkeys(pending, 0))
                if len(rows) == iters:
                    break

    ticks = np.array(rows) * 1e-6  # ms, one row per tick, one column per stage
    p50, p99 = np.percentile(ticks, [50, 99], axis=0).tolist()
    total_p50, total_p99 = np.percentile(ticks.sum(axis=1), [50, 99]).tolist()
    return BenchReport(iters=iters, budget_ms=budget_ms,
                       stage_p50_ms=dict(zip(pending, p50)),
                       stage_p99_ms=dict(zip(pending, p99)),
                       total_p50_ms=total_p50, total_p99_ms=total_p99)
