"""A frozen copy of the replay's per-event record path as it was before the
logs were kept as rows: `_Replay.step` appended one dict per fused pose, one
per IMU sample and two per policy tick, and `run_pipeline` wrote them all at
the end. Tests compare what `run_pipeline` writes with what this writes, so
that they do not compare the row-built logs with themselves.

It drives the same replay set-up (`_Replay.__init__`: streams, scans, tick
table, filter and map) and the same library calls; only the event loop's
bookkeeping and the record building are copied, with the record layouts
spelled out as they were. Telemetry is left out: these runs have no
endpoint.
"""

import json
from pathlib import Path

from terraforge.fileformats import encode_local_map
from terraforge.geometry import Pose
from terraforge.mapping import inject_map_noise
from terraforge.pipeline import IMU, ODOMETRY, SCAN, PipelineResult, _Replay
from terraforge.rewards import TERMS, compute_rewards, fit_plane


def _pose_record(pose):
    q, (px, py, pz) = pose.orientation, pose.position.tolist()
    return {"timestamp_ns": pose.timestamp_ns, "px": px, "py": py, "pz": pz,
            "qw": q.w, "qx": q.x, "qy": q.y, "qz": q.z}


def _imu_record(sample):
    (wx, wy, wz), (ax, ay, az) = (sample.angular_velocity.tolist(),
                                  sample.linear_acceleration.tolist())
    return {"timestamp_ns": sample.timestamp_ns, "wx": wx, "wy": wy, "wz": wz,
            "ax": ax, "ay": ay, "az": az}


def _reward_record(values, ts):
    raw, weighted, total = values[:len(TERMS)], values[len(TERMS):-1], values[-1]
    return {"timestamp_ns": ts, **{f"raw_{k}": v for k, v in zip(TERMS, raw)},
            **{f"weighted_{k}": v for k, v in zip(TERMS, weighted)},
            "total": total}


def _write_jsonl(records, path):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def reference_run(cfg, out_dir) -> None:
    """Replay cfg and write its seven files the per-event way."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replay = _Replay(cfg)
    fuser, emap, ticks = replay.fuser, replay.emap, replay.ticks
    fused_records, imu_records, reward_records = [], [], []
    trajectory_records, local_blobs = [], []
    imu_count = policy_count = scan_count = 0
    for _, kind, item in replay.events:
        if kind == ODOMETRY:
            fuser.handle_odometry(item)
            continue
        if fuser.state is None:
            if kind == IMU:
                fuser.stats.skipped_imu += 1
            continue
        if kind == SCAN:
            pose = fuser.state.pose()
            scan_pose = Pose(pose.position, pose.orientation, item.timestamp_ns)
            emap.recenter(scan_pose.position[:2])
            emap.integrate_scan(item, scan_pose)
            scan_count += 1
            continue

        fused = fuser.handle_imu([item])[0]
        imu_count += 1
        if imu_count % cfg.ticks_per_policy == 0:
            i, ts = policy_count, item.timestamp_ns
            policy_count += 1
            assert ticks.timestamps_ns[i] == ts
            local = emap.extract_local(fused, cfg.local_map)
            if cfg.noise.map_noise_ratio > 0:
                local = inject_map_noise(local, cfg.noise, replay.s_mapnoise + policy_count)
            fit = fit_plane(local.to_points())
            reward_records.append(_reward_record(compute_rewards(ticks.rewards, i, fit), ts))
            trajectory_records.append({
                "timestamp_ns": ts, "yaw": ticks.yaw[i], "body_height": ticks.body_height[i],
                "fill_ratio": local.fill_ratio,
                "plane_normal": [float(v) for v in fit.normal],
                "observation": ticks.observations[i].tolist()})
            local_blobs.append(encode_local_map(local.heights, local.resolution))
        fused_records.append(_pose_record(fused))
        imu_records.append(_imu_record(item))

    assert imu_count == len(replay.imu)
    _write_jsonl(fused_records, out / "fused_poses.jsonl")
    _write_jsonl(imu_records, out / "imu.jsonl")
    _write_jsonl([_pose_record(p) for p in replay.odom], out / "odometry.jsonl")
    _write_jsonl(reward_records, out / "rewards.jsonl")
    _write_jsonl(trajectory_records, out / "trajectory.jsonl")
    (out / "localmaps.bin").write_bytes(b"".join(local_blobs))
    result = PipelineResult(out_dir=out, fused_pose_count=imu_count,
                            policy_tick_count=policy_count, scan_count=scan_count,
                            rejected_stale=fuser.stats.rejected_stale,
                            telemetry_sent=0, telemetry_dropped=0)
    (out / "run_summary.json").write_text(json.dumps(result.summary(), indent=2) + "\n")
