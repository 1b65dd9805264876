"""End-to-end replay determinism, log outputs, and the tick benchmark."""

import json
import logging
import socket

import numpy as np
import pytest

from terraforge.config import PipelineConfig
from terraforge.fileformats import LOCAL_BLOB_HEADER_SIZE, pose_record, read_jsonl
from terraforge.mapping import ElevationMap
from terraforge.pipeline import (
    ODOMETRY,
    PipelineInvariantError,
    PipelineResult,
    _Replay,
    run_bench,
    run_pipeline,
)
from terraforge.sensors import NoiseConfig, TrajectoryKind, TrajectorySpec
from terraforge.telemetry import LocalMapFragment, RewardMessage, decode_message
from terraforge.geometry import Pose


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
        per = LOCAL_BLOB_HEADER_SIZE + 17 * 11 * 4
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
        cfg = small_cfg(noise=NoiseConfig(odom_pos_std=0.01,
                                          system_delay_ms=10.0))
        res = run_pipeline(cfg, tmp_path / "d")
        assert res.fused_pose_count == 401

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
            f"0 rejected_stale, 1 skipped_imu, 0 reseeds")

    def test_debug_line_per_stale_fix_and_reseed(self, caplog):
        replay = _Replay(small_cfg(trajectory=TrajectorySpec(
            kind=TrajectoryKind.CONSTANT_VELOCITY, duration=0.5, speed=1.0)))
        for _, kind, item in replay.events:
            replay.step(kind, item)
        fix = replay.odom[-1]  # the state is at 500 ms, the window is 50 ms
        with caplog.at_level(logging.DEBUG, logger="terraforge.pipeline"):
            replay.step(ODOMETRY, Pose(fix.position, fix.orientation, 400_000_000))
            replay.step(ODOMETRY, Pose(fix.position, fix.orientation, 600_000_000))
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "rejected stale odometry fix at 400000000 ns"),
            (logging.DEBUG, "re-seeded the filter from the odometry fix at 600000000 ns")]
        stats = replay.fuser.stats
        assert (stats.rejected_stale, stats.reseeds) == (1, 1)


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
        assert [pose_record(p) for p in extracted] == policy

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
