"""End-to-end replay: terrain -> synthetic sensors -> fusion -> mapping ->
rewards, plus the throughput benchmark.

Replay is virtual-time and event-driven; (config, seed) determines every
output byte. Only cmd_bench measures wall-clock time.
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
from .observations import ObservationFrame, ObservationHistory, sample_command
from .rewards import RewardInput, compute_rewards, fit_plane
from .sensors import (apply_delay, imu_stream, lidar_scan, odometry_stream,
                      true_state)
from .terrain import generate, sample_height
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
        return {
            "fused_pose_count": self.fused_pose_count,
            "policy_tick_count": self.policy_tick_count,
            "scan_count": self.scan_count,
            "rejected_stale": self.rejected_stale,
            "telemetry_sent": self.telemetry_sent,
            "telemetry_dropped": self.telemetry_dropped,
        }


def _seeds(seed: int, n: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


def _ground_height(hf, x: float, y: float) -> float:
    try:
        return sample_height(hf, x, y)
    except ValueError:
        return 0.0  # off-tile: base plane


def _reward_frame(cfg: PipelineConfig, hf, state, command):
    q = state.pose.orientation
    v_body = rotate_vec(quat_conjugate(q), state.velocity)
    gravity_body = rotate_vec(quat_conjugate(q), vec3(0, 0, -1.0))
    yaw = quat_yaw(q)
    ground = _ground_height(hf, state.pose.position[0], state.pose.position[1])
    c, s = np.cos(yaw), np.sin(yaw)
    feet_xy = state.pose.position[:2] + FOOT_OFFSETS @ np.array([[c, s], [-s, c]])
    feet = np.column_stack([
        feet_xy,
        [_ground_height(hf, fx, fy) for fx, fy in feet_xy],
    ])
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
        body_height=float(state.pose.position[2] - ground),
        desired_height=cfg.desired_height,
        action=zeros12, prev_action=zeros12, prev_prev_action=zeros12,
        hip_angles=np.zeros(4), hip_angles_desired=np.zeros(4),
        foot_positions=feet,
        foot_contact_forces=forces,
        command=command,
        terrain_type=cfg.terrain.terrain_type,
    )


def run_pipeline(cfg: PipelineConfig, out_dir) -> PipelineResult:
    """Replay the configured scenario and write all logs under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hf = generate(cfg.terrain)
    s_imu, s_odom, s_lidar, s_cmd, s_mapnoise = _seeds(cfg.seed, 5)
    command = sample_command(cfg.terrain.terrain_type, s_cmd)

    imu = imu_stream(cfg.trajectory, cfg.imu_hz, cfg.noise, s_imu)
    odom = odometry_stream(cfg.trajectory, cfg.odom_hz, cfg.noise, s_odom)
    scan_times = [s.timestamp_ns for s in
                  odometry_stream(cfg.trajectory, cfg.lidar_hz)]
    scans = []
    for i, ts in enumerate(scan_times):
        st = true_state(cfg.trajectory, ts * 1e-9)
        scans.append(lidar_scan(hf, st.pose, cfg.scan_pattern, cfg.noise,
                                s_lidar + i))

    delay = cfg.noise.system_delay_ms
    imu_d = apply_delay(imu, delay)
    odom_d = apply_delay(odom, delay)
    scans_d = apply_delay(scans, delay)

    # delivery order; odometry first on ties so the filter seeds before
    # the co-timed IMU sample, scans before the IMU tick that reads them
    events = ([(d.delivery_ns, 0, d.item) for d in odom_d]
              + [(d.delivery_ns, 1, d.item) for d in scans_d]
              + [(d.delivery_ns, 2, d.item) for d in imu_d])
    events.sort(key=lambda e: (e[0], e[1]))

    emap = ElevationMap(cfg.map_size, cfg.map_resolution,
                        center=(0.0, 0.0))
    fuser = PoseFuser(cfg.fusion)
    streamer = telemetry.UdpStreamer(cfg.endpoint) if cfg.endpoint else None

    ticks_per_policy = cfg.ticks_per_policy
    history = ObservationHistory.zeros()
    fused_records = []
    imu_records = []
    reward_records = []
    trajectory_records = []
    local_blobs = []
    expected_samples = cfg.local_map.samples_x * cfg.local_map.samples_y

    imu_count = 0
    policy_count = 0
    scan_count = 0
    try:
        for _, kind, item in events:
            if kind == 0:
                fuser.handle_odometry(item)
                continue
            if kind == 1:
                pose = (fuser.state.pose() if fuser.state is not None else None)
                if pose is None:
                    continue
                scan_pose = Pose(pose.position, pose.orientation, item.timestamp_ns)
                emap.recenter(scan_pose.position[:2])
                emap.integrate_scan(item, scan_pose)
                scan_count += 1
                continue

            if fuser.state is None:
                continue
            fused = fuser.handle_imu(item)
            imu_count += 1
            fused_records.append(pose_record(fused))
            imu_records.append(imu_record(item))

            if imu_count % ticks_per_policy != 0:
                continue
            policy_count += 1
            local = emap.extract_local(fused, cfg.local_map)
            if cfg.noise.map_noise_ratio > 0:
                local = inject_map_noise(local, cfg.noise.map_noise_ratio,
                                         cfg.noise.map_noise_magnitude,
                                         s_mapnoise + policy_count)
            if local.heights.size != expected_samples:
                raise PipelineInvariantError(
                    f"local map has {local.heights.size} samples, "
                    f"expected {expected_samples}")
            fit = fit_plane(local.to_points())
            state = true_state(cfg.trajectory, item.timestamp_ns * 1e-9)
            rin = _reward_frame(cfg, hf, state, command)
            breakdown = compute_rewards(rin, fit, cfg.weights, terrain=hf)
            reward_records.append(breakdown.as_record(item.timestamp_ns))

            frame = ObservationFrame(
                omega=rin.omega, gravity=rin.gravity_body, command=command,
                joint_angles=np.zeros(12), joint_velocities=np.zeros(12),
                prev_action=np.zeros(12))
            history = history.push(frame)
            rec = {"timestamp_ns": item.timestamp_ns,
                   "yaw": rin.yaw, "body_height": rin.body_height,
                   "fill_ratio": local.fill_ratio,
                   "plane_normal": [float(v) for v in fit.normal],
                   "observation": [float(v) for v in frame.flatten()]}
            trajectory_records.append(rec)
            local_blobs.append(encode_local_map(local.heights, local.resolution))

            if streamer is not None:
                streamer.send(telemetry.encode_pose(fused))
                for frag in telemetry.encode_local_map(
                        item.timestamp_ns, local.heights, local.resolution):
                    streamer.send(frag)
                streamer.send(telemetry.encode_reward(
                    item.timestamp_ns, list(breakdown.weighted.values())))
    finally:
        if streamer is not None:
            streamer.close()

    if imu_count != len(imu):
        raise PipelineInvariantError(
            f"produced {imu_count} fused poses for {len(imu)} imu samples")
    if policy_count != imu_count // ticks_per_policy:
        raise PipelineInvariantError(
            f"{policy_count} policy ticks for {imu_count} fused poses")

    write_jsonl(fused_records, out / "fused_poses.jsonl")
    write_jsonl(imu_records, out / "imu.jsonl")
    write_jsonl([pose_record(p) for p in odom], out / "odometry.jsonl")
    write_jsonl(reward_records, out / "rewards.jsonl")
    write_jsonl(trajectory_records, out / "trajectory.jsonl")
    (out / "localmaps.bin").write_bytes(b"".join(local_blobs))
    result = PipelineResult(
        out_dir=out,
        fused_pose_count=imu_count,
        policy_tick_count=policy_count,
        scan_count=scan_count,
        rejected_stale=fuser.stats.rejected_stale,
        telemetry_sent=streamer.sent if streamer else 0,
        telemetry_dropped=streamer.dropped if streamer else 0,
    )
    (out / "run_summary.json").write_text(
        json.dumps(result.summary(), indent=2) + "\n")
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


def run_bench(cfg: PipelineConfig | None = None, iters: int = 10000,
              budget_ms: float = 5.0) -> BenchReport:
    """Wall-clock latency of one 200 Hz tick's worth of work.

    Scan integration runs at its real cadence and its cost is amortized
    over the ticks between scans.
    """
    cfg = cfg or PipelineConfig()
    hf = generate(cfg.terrain)
    emap = ElevationMap(cfg.map_size, cfg.map_resolution)
    fuser = PoseFuser(cfg.fusion)
    command = sample_command(cfg.terrain.terrain_type, cfg.seed)

    t0 = true_state(cfg.trajectory, 0.0)
    start = Pose(t0.pose.position, t0.pose.orientation, 0)
    fuser.initialize(start)
    scan = lidar_scan(hf, start, cfg.scan_pattern, cfg.noise, cfg.seed)
    emap.integrate_scan(scan, start)

    dt_ns = round(1e9 / cfg.imu_hz)
    ticks_per_scan = max(1, cfg.imu_hz // cfg.lidar_hz)
    imu = imu_stream(cfg.trajectory, cfg.imu_hz, cfg.noise, cfg.seed)

    fusion_t = np.empty(iters)
    scan_t = np.empty(iters)
    extract_t = np.empty(iters)
    reward_t = np.empty(iters)
    last_scan_cost = 0.0

    for i in range(iters):
        sample = imu[i % len(imu)]
        # keep timestamps advancing regardless of wrap
        sample = type(sample)(fuser.state.timestamp_ns + dt_ns,
                              sample.angular_velocity,
                              sample.linear_acceleration)
        t = time.perf_counter_ns()
        fused = fuser.handle_imu(sample)
        fusion_t[i] = time.perf_counter_ns() - t

        if i % ticks_per_scan == 0:
            tagged = type(scan)(fused.timestamp_ns, scan.points)
            t = time.perf_counter_ns()
            emap.integrate_scan(tagged, Pose(start.position, start.orientation,
                                             fused.timestamp_ns))
            last_scan_cost = time.perf_counter_ns() - t
        scan_t[i] = last_scan_cost / ticks_per_scan

        t = time.perf_counter_ns()
        local = emap.extract_local(Pose(start.position, start.orientation,
                                        fused.timestamp_ns), cfg.local_map)
        extract_t[i] = time.perf_counter_ns() - t

        t = time.perf_counter_ns()
        fit = fit_plane(local.to_points())
        state = true_state(cfg.trajectory, 0.0)
        rin = _reward_frame(cfg, hf, state, command)
        compute_rewards(rin, fit, cfg.weights, terrain=hf)
        reward_t[i] = time.perf_counter_ns() - t

    stages = {"fusion_step": fusion_t, "scan_amortized": scan_t,
              "local_extract": extract_t, "reward_eval": reward_t}
    total = fusion_t + scan_t + extract_t + reward_t
    to_ms = 1e-6
    return BenchReport(
        iters=iters, budget_ms=budget_ms,
        stage_p50_ms={k: float(np.percentile(v, 50)) * to_ms for k, v in stages.items()},
        stage_p99_ms={k: float(np.percentile(v, 99)) * to_ms for k, v in stages.items()},
        total_p50_ms=float(np.percentile(total, 50)) * to_ms,
        total_p99_ms=float(np.percentile(total, 99)) * to_ms,
    )
