"""End-to-end replay: terrain -> synthetic sensors -> fusion -> mapping ->
rewards, plus the per-tick latency benchmark.

Replay is virtual-time and event-driven; (config, seed) determines every
output byte. One _Replay object holds the event loop's stages: run_pipeline
drives it and writes the logs, and run_bench drives the same stages over
back-to-back replays with a wall-clock timer between them, spreading each
scan's cost over the ticks between scans. Only run_bench reads the clock.
The system delay shifts the delivery of every stream by the same amount,
so it changes neither the event order nor any output.

The replay keeps one numeric row per fused pose and per policy tick, not a
log record: run_pipeline builds each record from its row only as its line
is written, and writes the IMU and odometry logs straight from their
streams. After the timestamp, a pose row holds the values of POSE_KEYS and
a tick row starts with those of rewards.REWARD_KEYS, as compute_rewards
returns them; so each record is its keys zipped with its timestamp and row.

What does not depend on the filter or the map is replay set-up, done
before the event loop: the LiDAR scans, and for every policy tick the true
state, the ground under the body and feet, every reward term but the two
that read the plane fit, and the observation. A policy tick itself extracts
the local map, fits the plane, and adds the two fit terms and the weighted
sum.
"""

from __future__ import annotations

import json
import logging
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .fileformats import (POSE_KEYS, encode_local_map, imu_record, pose_record,
                          write_jsonl)
from .fusion import PoseFuser
from .geometry import Pose, elementwise, quat_yaws, rotate_vecs, vec3
from .mapping import ElevationMap, inject_map_noise
from .observations import ObservationFrame, sample_command
from .rewards import (REWARD_KEYS, WEIGHTED, RewardInput, RewardTable,
                      compute_rewards, fit_plane, reward_table)
from .sensors import (apply_delay, imu_stream, lidar_scan, merge_delivered,
                      odometry_stream, sample_times_ns, true_states)
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


@dataclass(frozen=True, eq=False)
class _Ticks:
    """The trajectory side of a replay's policy ticks, one row per tick:
    everything a tick records that depends on neither the filter nor the map."""

    timestamps_ns: list[int]
    rewards: RewardTable
    yaw: list[float]
    body_height: list[float]
    observations: np.ndarray  # (ticks, FRAME_DIM)


def _policy_ticks(cfg: PipelineConfig, hf, command, timestamps_ns) -> _Ticks:
    """The true state at each tick, the ground under the body and each foot
    (off the tile: the base plane), and from them every reward term that
    does not read the plane fit and the observation of each tick."""
    state = true_states(cfg.trajectory, timestamps_ns)
    n = len(timestamps_ns)
    pos, vel, omega = state.position, state.velocity, state.angular_velocity
    q_inv = state.orientation * (1, -1, -1, -1)  # conjugates
    v_body_xy = rotate_vecs(q_inv, vel)[:, :2]
    gravity = rotate_vecs(q_inv, np.broadcast_to(vec3(0, 0, -1.0), (n, 3)))
    yaw = quat_yaws(state.orientation)
    c, s = elementwise(math.cos, yaw), elementwise(math.sin, yaw)
    feet_xy = pos[:, None, :2] + FOOT_OFFSETS @ np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)
    xy = np.concatenate([pos[:, None, :2], feet_xy], axis=1)  # body, then feet
    h, on_tile = sample_height_vec(hf, xy[..., 0], xy[..., 1])
    ground = np.where(on_tile, h, 0.0)
    zeros4, zeros12 = np.zeros((n, 4)), np.zeros((n, 12))
    commands = np.broadcast_to(command, (n, 3))
    inp = RewardInput(
        v_world=vel, v_body_xy=v_body_xy, v_z=vel[:, 2], omega=omega,
        gravity_body=gravity, yaw=yaw, joint_acc=zeros12,
        body_height=pos[:, 2] - ground[:, 0],
        desired_height=np.full(n, cfg.desired_height),
        action=zeros12, prev_action=zeros12, prev_prev_action=zeros12,
        hip_angles=zeros4, hip_angles_desired=zeros4,
        foot_positions=np.concatenate([feet_xy, ground[:, 1:, None]], axis=2),
        foot_contact_forces=np.broadcast_to([0.0, 0.0, NOMINAL_CONTACT_FORCE], (n, 4, 3)),
        command=commands, terrain_type=cfg.terrain.terrain_type)
    observations = ObservationFrame(
        omega=omega, gravity=gravity, command=commands, joint_angles=zeros12,
        joint_velocities=zeros12, prev_action=zeros12).flatten()
    return _Ticks(timestamps_ns=list(timestamps_ns),
                  rewards=reward_table(inp, cfg.weights, hf),
                  yaw=yaw.tolist(), body_height=inp.body_height.tolist(),
                  observations=observations)


ODOMETRY, SCAN, IMU = range(3)  # event stream indices, in tie order

# the replay's stages, in report order: an odometry update is filter work,
# scan_amortized is recenter + integrate, and a fused pose's log row (and a
# tick's log rows and telemetry) count with the reward work they report
_BENCH_STAGES = ("fusion_step", "scan_amortized", "local_extract", "reward_eval")

# a policy tick's row: compute_rewards' values of the reward record, the
# local map's fill ratio and the plane normal
_FILL = len(REWARD_KEYS) - 1
_NORMAL = slice(_FILL + 1, _FILL + 4)


class _Replay:
    """One replay's inputs, filter, map and log rows, and the handling of
    each delivered event, stage by stage: step() calls lap(stage) with one
    of _BENCH_STAGES as each stage ends."""

    def __init__(self, cfg: PipelineConfig, endpoint: str | None = None):
        self.cfg = cfg
        self.hf = generate(cfg.terrain)
        s_imu, s_odom, s_lidar, s_cmd, self.s_mapnoise = _seeds(cfg.seed, 5)
        self.command = sample_command(cfg.terrain.terrain_type, s_cmd)

        self.imu = imu_stream(cfg.trajectory, cfg.imu_hz, cfg.noise, s_imu)
        # every IMU sample is handled in stream order, and each
        # ticks_per_policy-th one is a policy tick
        tpp = cfg.ticks_per_policy
        self.ticks = _policy_ticks(cfg, self.hf, self.command,
                                   [s.timestamp_ns for s in self.imu[tpp - 1::tpp]])
        self.odom = odometry_stream(cfg.trajectory, cfg.odom_hz, cfg.noise, s_odom)
        # each scan is taken from the true pose at its time
        scan_poses = true_states(cfg.trajectory,
                                 sample_times_ns(cfg.trajectory.duration, cfg.lidar_hz)).poses()
        scans = [lidar_scan(self.hf, pose, cfg.scan_pattern, cfg.noise, s_lidar + i)
                 for i, pose in enumerate(scan_poses)]
        # odometry first on delivery ties so the filter seeds before the
        # co-timed IMU sample, scans before the IMU tick that reads them
        delay = cfg.noise.system_delay_ms
        self.events = merge_delivered(apply_delay(self.odom, delay),
                                      apply_delay(scans, delay),
                                      apply_delay(self.imu, delay))

        self.emap = ElevationMap(cfg.map_size, cfg.map_resolution)
        self.fuser = PoseFuser(cfg.fusion)
        # per fused pose its timestamp and its position and quaternion
        # (w, x, y, z); per policy tick the row laid out above
        self.fused_ts = np.zeros(len(self.imu), dtype=np.int64)
        self.fused = np.zeros((len(self.imu), 7))
        self.tick_rows = np.zeros((len(self.ticks.timestamps_ns), _NORMAL.stop))
        self.local_maps = bytearray()
        self.imu_count = self.policy_count = self.scan_count = 0
        self.streamer = telemetry.UdpStreamer(endpoint) if endpoint else None

    def step(self, kind: int, item, lap=lambda stage: None) -> None:
        """Handle one delivered event. Scans and IMU samples delivered
        before the first odometry fix are dropped."""
        fuser = self.fuser
        if kind == ODOMETRY:
            fuser.handle_odometry(item)
            lap("fusion_step")
            return
        if kind == SCAN:
            if fuser.state is not None:
                pose = fuser.state.pose()
                self.emap.recenter(pose.position[:2])
                self.emap.integrate_scan(item, pose)
                self.scan_count += 1
                lap("scan_amortized")
            return

        fused = fuser.handle_imu(item)
        if fused is None:
            return
        i = self.imu_count
        self.imu_count += 1
        lap("fusion_step")
        if self.imu_count % self.cfg.ticks_per_policy == 0:
            self._policy_tick(item.timestamp_ns, fused, lap)
        q = fused.orientation
        self.fused_ts[i] = fused.timestamp_ns
        self.fused[i] = (*fused.position.tolist(), q.w, q.x, q.y, q.z)
        lap("reward_eval")

    def _policy_tick(self, ts: int, fused: Pose, lap) -> None:
        cfg, ticks, i = self.cfg, self.ticks, self.policy_count
        self.policy_count += 1
        if ticks.timestamps_ns[i] != ts:
            raise PipelineInvariantError(
                f"policy tick {i} at {ts} ns, expected {ticks.timestamps_ns[i]} ns")
        local = self.emap.extract_local(fused, cfg.local_map)
        if cfg.noise.map_noise_ratio > 0:
            local = inject_map_noise(local, cfg.noise.map_noise_ratio,
                                     cfg.noise.map_noise_magnitude,
                                     self.s_mapnoise + self.policy_count)
        expected = cfg.local_map.samples_x * cfg.local_map.samples_y
        if local.heights.size != expected:
            raise PipelineInvariantError(
                f"local map has {local.heights.size} samples, expected {expected}")
        lap("local_extract")

        fit = fit_plane(local.to_points())
        rewards = compute_rewards(ticks.rewards, i, fit)
        lap("reward_eval")

        self.tick_rows[i] = (*rewards, local.fill_ratio, *fit.normal.tolist())
        self.local_maps += encode_local_map(local.heights, local.resolution)
        if self.streamer is not None:
            self.streamer.send(telemetry.encode_pose(fused))
            for frag in telemetry.encode_local_map(ts, local.heights, local.resolution):
                self.streamer.send(frag)
            self.streamer.send(telemetry.encode_reward(ts, rewards[WEIGHTED]))

    # The log records, each built from its row as it is written. A float64
    # row gives back every float it was given, -0.0 included.

    def fused_records(self):
        n = self.imu_count
        for ts, row in zip(self.fused_ts[:n].tolist(), self.fused[:n]):
            yield dict(zip(POSE_KEYS, [ts, *row.tolist()]))

    def reward_records(self):
        for ts, row in zip(self.ticks.timestamps_ns, self.tick_rows[:self.policy_count]):
            yield dict(zip(REWARD_KEYS, [ts, *row[:_FILL].tolist()]))

    def trajectory_records(self):
        ticks = self.ticks
        for i, row in enumerate(self.tick_rows[:self.policy_count]):
            row = row.tolist()
            yield {"timestamp_ns": ticks.timestamps_ns[i], "yaw": ticks.yaw[i],
                   "body_height": ticks.body_height[i], "fill_ratio": row[_FILL],
                   "plane_normal": row[_NORMAL],
                   "observation": ticks.observations[i].tolist()}


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

    # every IMU sample was handled (checked above), so imu.jsonl is the stream
    write_jsonl(replay.fused_records(), out / "fused_poses.jsonl")
    write_jsonl(map(imu_record, replay.imu), out / "imu.jsonl")
    write_jsonl(map(pose_record, replay.odom), out / "odometry.jsonl")
    write_jsonl(replay.reward_records(), out / "rewards.jsonl")
    write_jsonl(replay.trajectory_records(), out / "trajectory.jsonl")
    (out / "localmaps.bin").write_bytes(replay.local_maps)
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

    def as_record(self) -> dict:
        return {
            "iters": self.iters, "budget_ms": self.budget_ms,
            "within_budget": self.within_budget,
            "stages": {name: {"p50_ms": p50, "p99_ms": self.stage_p99_ms[name]}
                       for name, p50 in self.stage_p50_ms.items()},
            "tick_total": {"p50_ms": self.total_p50_ms, "p99_ms": self.total_p99_ms},
        }


def run_bench(cfg: PipelineConfig | None = None, iters: int = 10000,
              budget_ms: float = 5.0) -> BenchReport:
    """Wall-clock latency of the replay's own stages, per IMU tick; a
    stage's percentiles are over the ticks it ran on (NaN if none).

    Replays the configured scenario back to back, each replay the one
    run_pipeline makes (same seeds, duration and events, so it stays on the
    terrain) but with no telemetry and no files, until iters IMU ticks are
    timed. A tick is charged the odometry updates delivered since the tick
    before it, and the cost of the scan before it spread over the ticks
    between scans. Replay set-up is not timed: LiDAR synthesis and the
    trajectory side of every policy tick, so reward_eval times only the
    plane-fit terms, the weighted sum and the log records.
    """
    cfg = cfg or PipelineConfig()
    if iters < 1:
        raise ValueError("iters must be >= 1")
    ticks_per_scan = max(1, cfg.imu_hz // cfg.lidar_hz)
    # ns since the last tick; None for a stage that has not run since
    pending = dict.fromkeys(_BENCH_STAGES)
    rows = []
    mark = 0

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter_ns()
        pending[stage] = (pending[stage] or 0) + now - mark
        mark = now

    while len(rows) < iters:
        replay, done, scan_ns = _Replay(cfg), len(rows), None
        for _, kind, item in replay.events:
            mark = time.perf_counter_ns()
            replay.step(kind, item, lap)
            if kind == SCAN:
                scan_ns, pending["scan_amortized"] = pending["scan_amortized"], None
            elif done + replay.imu_count > len(rows):
                if scan_ns is not None:
                    pending["scan_amortized"] = scan_ns / ticks_per_scan
                rows.append(list(pending.values()))
                pending.update(dict.fromkeys(pending))
                if len(rows) == iters:
                    break

    # ms, one row per tick, one column per stage, NaN where it did not run
    ticks = np.array(rows, dtype=float) * 1e-6
    with warnings.catch_warnings():  # all-NaN columns
        warnings.simplefilter("ignore", RuntimeWarning)
        p50, p99 = np.nanpercentile(ticks, [50, 99], axis=0).tolist()
    total_p50, total_p99 = np.percentile(np.nansum(ticks, axis=1), [50, 99]).tolist()
    return BenchReport(iters=iters, budget_ms=budget_ms,
                       stage_p50_ms=dict(zip(pending, p50)),
                       stage_p99_ms=dict(zip(pending, p99)),
                       total_p50_ms=total_p50, total_p99_ms=total_p99)
