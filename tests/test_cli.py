"""CLI subcommands, exit codes, and printed output."""

import contextlib
import io
import json
import os
import platform
import shutil
import socket
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terraforge
from terraforge.cli import main
from terraforge.config import PipelineConfig, load_config
from terraforge.fileformats import read_heightfield, read_jsonl
from terraforge.pipeline import PipelineInvariantError, run_bench, run_pipeline
from terraforge.rewards import TERMS
from terraforge.sensors import NoiseConfig, SensorUnderground, TrajectoryKind, TrajectorySpec
from terraforge.telemetry import RewardMessage, decode_message
from terraforge.terrain import TerrainSpec, TerrainType


RUN_CONFIG = """
[trajectory]
duration = 1.0

[noise]
odom_pos_std = 0.01

[run]
seed = 5
"""


SEVEN_FILES = ["fused_poses.jsonl", "imu.jsonl", "localmaps.bin", "odometry.jsonl",
               "rewards.jsonl", "run_summary.json", "trajectory.jsonl"]


class TestGen:
    def test_writes_heightfield_and_prints_parameter(self, tmp_path, capsys):
        out = tmp_path / "tile.hfld"
        code = main(["gen", "--robot", "lite3", "--terrain", "tau5",
                     "--level", "9", "--out", str(out)])
        assert code == 0
        assert out.exists()
        hf = read_heightfield(out)
        assert hf.heights.max() == pytest.approx(0.55, abs=1e-6)
        line = capsys.readouterr().out.strip()
        name, value = line.split()
        assert name == "platform_height"
        assert float(value) == pytest.approx(0.55, abs=1e-3)

    def test_csv_side_output(self, tmp_path):
        out = tmp_path / "tile.hfld"
        csv = tmp_path / "tile.csv"
        assert main(["gen", "--terrain", "tau3", "--level", "4",
                     "--out", str(out), "--csv", str(csv)]) == 0
        data = np.loadtxt(csv, delimiter=",")
        back = read_heightfield(out)
        assert np.allclose(data, back.heights, atol=1e-6)

    def test_level_out_of_range(self, tmp_path, capsys):
        code = main(["gen", "--level", "12",
                     "--out", str(tmp_path / "x.hfld")])
        assert code == 2
        assert "outside [0, 9]" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_non_positive_tile_size(self, tmp_path, capsys, size):
        code = main(["gen", "--tile-size", size, "--out", str(tmp_path / "x.hfld")])
        assert code == 2
        err = capsys.readouterr().err
        assert "tile_size must be positive" in err and "Traceback" not in err

    def test_unknown_terrain_name(self, tmp_path, capsys):
        code = main(["gen", "--terrain", "volcano",
                     "--out", str(tmp_path / "x.hfld")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_from_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fused_pose_count 201" in stdout
        assert "policy_tick_count 50" in stdout
        assert (out_dir / "fused_poses.jsonl").exists()

    def test_duration_whose_last_sample_is_past_it_by_an_ulp(self, tmp_path, capsys):
        """300,000,000 ns * 1e-9 is 0.30000000000000004 s, past 0.3."""
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[trajectory]\nduration = 0.3\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert "fused_pose_count 61" in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.iterdir()) == SEVEN_FILES

    def test_vertical_best_fit_plane(self, tmp_path, capsys):
        """Two policy ticks fit the plane with normal (0, 1, 0), which is a
        valid fit."""
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[trajectory]\nduration = 0.15\nheight_above_ground = 1.5\n"
                            "[noise]\nodom_pos_std = 0.01\n[run]\nlidar_hz = 2\nseed = 6\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == SEVEN_FILES
        assert '"plane_normal": [0.0, 1.0, 0.0]' in (out_dir / "trajectory.jsonl").read_text()

    def test_missing_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config:" in capsys.readouterr().err

    def test_invalid_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[fusion]\nbogus = 1\n")
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["nonsense", "127.0.0.1:abc", "127.0.0.1:70000"])
    def test_bad_endpoint_is_config_error(self, tmp_path, capsys, endpoint):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(RUN_CONFIG.replace("[run]\n", f"[run]\nendpoint = {endpoint}\n"))
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config:" in err and "endpoint" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(RUN_CONFIG)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "fused_poses.jsonl").read_bytes()
        b = (tmp_path / "b" / "fused_poses.jsonl").read_bytes()
        assert a == b


STAIRS_LEVEL0 = "[terrain]\ntype = tau3\nlevel = 0\n"


class TestBench:
    def test_report_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        code = main(["bench", "--iters", "100", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "tick total" in stdout
        assert out.read_text().strip() in stdout.replace("\r", "")
        assert code in (0, 3)  # 3 only if this host blows the budget
        if code == 0:
            assert "within" in stdout


    def test_zero_iters_is_a_usage_error(self, capsys):
        assert main(["bench", "--iters", "0"]) == 2
        err = capsys.readouterr().err
        assert "--iters" in err and "Traceback" not in err

    def test_json_record(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        code = main(["bench", "--iters", "50", "--json", str(path)])
        rec = json.loads(path.read_text())
        assert code == (0 if rec["within_budget"] else 3)
        assert rec["iters"] == 50 and rec["budget_ms"] == 5.0 and rec["config"] is None
        assert set(rec["stages"]) == {"fusion_step", "scan_amortized",
                                      "local_extract", "reward_eval"}
        for times in (*rec["stages"].values(), rec["tick_total"]):
            assert times["p99_ms"] >= times["p50_ms"] >= 0.0
        env = rec["environment"]
        assert env["nproc"] >= 1 and env["cpu_model"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__

    def test_pipeline_invariant_exits_3(self, capsys, monkeypatch):
        def broken(cfg, iters):
            raise PipelineInvariantError("policy tick 0 at 1 ns, expected 0 ns")

        monkeypatch.setattr("terraforge.cli.run_bench", broken)
        assert main(["bench", "--iters", "5"]) == 3
        err = capsys.readouterr().err
        assert err == "error: pipeline invariant: policy tick 0 at 1 ns, expected 0 ns\n"

    def test_json_written_when_over_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("terraforge.cli.run_bench",
                            lambda cfg, iters: run_bench(cfg, iters, budget_ms=1e-9))
        path = tmp_path / "bench.json"
        assert main(["bench", "--iters", "20", "--json", str(path)]) == 3
        assert json.loads(path.read_text())["within_budget"] is False


class TestTallTerrain:
    """Stairs level 0 puts the default 0.4 m sensor under the first riser
    after about 3.1 s: both commands exit 2 with a hint, no traceback."""

    def test_run_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "stairs.ini"
        cfg_path.write_text(STAIRS_LEVEL0)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "sensor underground" in err and "height_above_ground" in err
        assert "Traceback" not in err

    def test_bench_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "stairs.ini"
        cfg_path.write_text(STAIRS_LEVEL0)
        assert main(["bench", "--config", str(cfg_path), "--iters", "1000"]) == 2
        captured = capsys.readouterr()
        assert "sensor underground" in captured.err
        assert "height_above_ground" in captured.err
        assert "Traceback" not in captured.err
        assert "budget" not in captured.out


class TestConfigErrors:
    @pytest.mark.parametrize("text", ["[lidar]\nray_step = 0\n",
                                      "[run]\nmap_size = 20.01\n",
                                      "[lidar]\nray_step = 1e-6\n",
                                      "[lidar]\nn_azimuth = 100000\n",
                                      "[terrain]\ntile_size = 0.05\n"])
    def test_run_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, argv, key", [
        ("[trajectory]\nduration = nan\n", [], "duration"),
        ("[trajectory]\nheight_above_ground = nan\n", [], "height_above_ground"),
        ("[run]\nseed = -1\n", [], "seed"),
        ("", ["--seed", "-1"], "seed"),
    ], ids=["nan-duration", "nan-height", "negative-seed", "negative-seed-flag"])
    def test_bad_value_exits_2_naming_it(self, tmp_path, capsys, text, argv, key):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "Traceback" not in err
        assert key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("text, match", [
        ("[run]\nimu_hz = 50\n", "imu_hz 50 outside"),
        ("[noise]\nmap_noise_ratio = 0.05\nmap_noise_magnitude = 2 1\n", "reversed"),
        ("[terrain]\ntype = gap\ntile_size = 2\n", "feature exceeds tile"),
        ("[terrain]\ntype = stairs\ntile_size = 2\n", "feature exceeds tile"),
        ("[trajectory]\nkind = sinusoid\namplitude = 0.05\nfrequency = 1e300\n",
         "peak vertical acceleration"),
        ("[trajectory]\nkind = sinusoid\namplitude = 1e300\n", "|amplitude| must be <= 10 m"),
        ("[local_map]\nlength_x = 0.2\nlength_y = 0.2\n", "3 x 3 samples"),
        ("[local_map]\nlength_x = 0\n", "length_x must be finite and positive"),
        ("[local_map]\nlength_x = -1.6\n", "length_x must be finite and positive"),
        ("[local_map]\nresolution = 1e-300\n", "spans over 65535 samples"),
        ("[local_map]\nlength_x = 6600\n", "spans over 65535 samples"),
    ], ids=["imu-rate", "reversed-magnitude", "gap-on-small-tile", "stairs-on-small-tile",
            "sinusoid-frequency", "sinusoid-amplitude", "local-map-under-10-samples",
            "zero-local-map", "negative-local-map", "tiny-local-map-resolution",
            "local-map-over-u16"])
    def test_config_that_cannot_run_is_refused_at_load(self, tmp_path, capsys, command,
                                                        text, match):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        argv = [command, "--config", str(cfg_path)]
        argv += ["--out", str(tmp_path / "out")] if command == "run" else ["--iters", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any numpy warning
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config:") and match in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_robot_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[terrain]\nrobot = bogus\n")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown robot" in err and "Traceback" not in err


MALFORMED_INI = {"no-header": "seed = 1\n",
                 "duplicate-section": "[run]\nseed = 1\n[run]\nseed = 2\n",
                 "duplicate-key": "[run]\nseed = 1\nseed = 2\n"}


class TestMalformedIni:
    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("text", MALFORMED_INI.values(), ids=MALFORMED_INI.keys())
    def test_exits_2(self, tmp_path, capsys, command, text):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        argv = [command, "--config", str(cfg_path)]
        argv += ["--out", str(tmp_path / "out")] if command == "run" else ["--iters", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config:")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()


# values per INI key, each key set or left out at random; out-of-range
# values (imu_hz, a reversed magnitude, a small tile for a gap or stairs, a
# tile of 1-3 nodes per side, speed, radius, a sinusoid's amplitude and
# frequency up to 1e300, zero LiDAR sizes, LiDAR marches too long or too
# wide to fit, local maps too small for the plane fit or too large for
# their u16 headers, tile and map grids over their cells-per-side bound)
# are drawn beside valid ones
_DRAWN_KEYS = {
    "terrain": {"type": st.sampled_from(["slope", "stones", "stairs", "gap", "platform"]),
                "level": st.integers(0, 9), "robot": st.sampled_from(["lite3", "x30"]),
                "tile_size": st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3, 2.0, 3.0, 4.0, 8.0]),
                "resolution": st.sampled_from([0.05, 0.1, 0.001]), "seed": st.integers(0, 99)},
    "trajectory": {"kind": st.sampled_from(["static", "constant_velocity", "circle", "sinusoid"]),
                   "height_above_ground": st.sampled_from([0.2, 0.4, 1.0, 1.5]),
                   "speed": st.floats(0.0, 3.5), "radius": st.floats(-0.5, 3.0),
                   "amplitude": st.one_of(st.floats(0.0, 0.2), st.floats(0.0, 1e300)),
                   "frequency": st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e300))},
    "noise": {"gyro_std": st.floats(0.0, 0.05), "accel_std": st.floats(0.0, 0.5),
              "odom_pos_std": st.floats(0.0, 0.05), "odom_yaw_std": st.floats(0.0, 0.05),
              "lidar_range_std": st.floats(0.0, 0.05),
              "map_noise_ratio": st.sampled_from([0.0, 0.05, 0.1]),
              "map_noise_magnitude": st.sampled_from(["-1 2", "0 0.5", "2 1"]),
              "system_delay_ms": st.floats(0.0, 15.0)},
    "fusion": {"gyro_noise": st.floats(1e-4, 1e-2), "odom_pos_std": st.floats(1e-3, 0.1),
               "init_att_std": st.floats(0.01, 0.5)},
    "local_map": {"length_x": st.sampled_from([0.8, 1.6, 0.2, 0.0, -1.6, 6600.0]),
                  "length_y": st.sampled_from([0.5, 1.0, 0.2]),
                  "resolution": st.sampled_from([0.05, 0.1, 1e-300])},
    "rewards": {"l_tracking": st.floats(-5.0, 5.0), "feet_edge_gap": st.floats(-20.0, 0.0),
                "edge_margin": st.floats(0.0, 0.2), "grad_threshold": st.floats(0.05, 1.0)},
    "lidar": {"n_azimuth": st.one_of(st.integers(0, 64), st.just(10**6)),
              "n_elevation": st.one_of(st.integers(0, 32), st.just(10**5 + 1)),
              "max_range": st.sampled_from([0.0, 2.0, 6.0, 12.0, 1e9]),
              "ray_step": st.sampled_from([0.0, 0.01, 0.05, 1e-6])},
    "run": {"imu_hz": st.sampled_from([50, 100, 200, 400, 2000]),
            "odom_hz": st.sampled_from([5, 10, 20]), "lidar_hz": st.sampled_from([1, 2, 5, 10]),
            "policy_hz": st.sampled_from([25, 50, 100]), "map_size": st.sampled_from([10.0, 20.0]),
            "map_resolution": st.sampled_from([0.05, 0.1, 0.001]),
            "desired_height": st.floats(0.2, 0.6),
            "seed": st.integers(0, 2**16)},
}


@st.composite
def ini_texts(draw):
    """INI text over every section, with a duration of at most 0.5 s, on
    the 0.05 s grid or anywhere."""
    lines = []
    for section, keys in _DRAWN_KEYS.items():
        lines.append(f"[{section}]")
        if section == "trajectory":
            grid = st.integers(1, 10).map(lambda k: round(k * 0.05, 2))
            lines.append(f"duration = {draw(st.one_of(grid, st.floats(1e-3, 0.5)))}")
        lines += [f"{key} = {draw(values)}" for key, values in keys.items()
                  if draw(st.booleans())]
    return "\n".join(lines) + "\n"


class TestEveryConfigThatLoadsRuns:
    @given(text=ini_texts())
    @settings(max_examples=20, deadline=None)
    def test_refused_at_load_or_runs(self, text, tmp_path_factory):
        """A drawn config is refused by load_config, writes the seven files
        or drives its sensor underground; `run` on it exits 2, 0 or 2 to
        match, writes the same files and prints no traceback."""
        tmp = tmp_path_factory.mktemp("draw")
        (tmp / "cfg.ini").write_text(text)
        try:
            cfg = load_config(text, is_text=True)
        except ValueError:
            expected = (2, "error: config: ")
        else:
            try:
                run_pipeline(cfg, tmp / "lib")
                assert sorted(p.name for p in (tmp / "lib").iterdir()) == SEVEN_FILES
                expected = (0, "")
            except SensorUnderground:
                expected = (2, "error: sensor underground")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(tmp / "cfg.ini"), "--out", str(tmp / "cli")])
        assert (code, err.getvalue()[:len(expected[1])]) == expected, err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            for name in SEVEN_FILES:
                assert (tmp / "cli" / name).read_bytes() == (tmp / "lib" / name).read_bytes()


class TestEditMap:
    def test_edit_round_trip(self, tmp_path, capsys):
        path = tmp_path / "tile.hfld"
        assert main(["gen", "--terrain", "tau1", "--level", "0",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["edit-map", "--map", str(path),
                     "--xmin", "2.0", "--ymin", "-1.0",
                     "--xmax", "3.0", "--ymax", "1.0",
                     "--height", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        count = int(out.split()[1])
        assert out.startswith("affected_cells")
        assert count == 20 * 40  # 1.0 m x 2.0 m at 0.05 m
        hf = read_heightfield(path)
        assert hf.heights.max() == pytest.approx(0.3, abs=1e-6)

    def test_zero_area_region(self, tmp_path, capsys):
        path = tmp_path / "tile.hfld"
        main(["gen", "--out", str(path)])
        capsys.readouterr()
        code = main(["edit-map", "--map", str(path),
                     "--xmin", "2.0", "--ymin", "0.0",
                     "--xmax", "2.0", "--ymax", "1.0",
                     "--height", "0.3"])
        assert code == 2

    @pytest.mark.parametrize("bound, code, out", [("1e300", 0, "affected_cells 1600\n"),
                                                  ("1e308", 0, "affected_cells 1600\n"),
                                                  ("inf", 2, "")])
    def test_far_or_infinite_bound(self, tmp_path, capsys, bound, code, out):
        path = tmp_path / "tile.hfld"
        main(["gen", "--out", str(path)])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning
            assert main(["edit-map", "--map", str(path), "--xmin", "0", "--ymin", "0",
                         "--xmax", bound, "--ymax", "0.5", "--height", "0.1"]) == code
        captured = capsys.readouterr()
        assert captured.out == out and "Traceback" not in captured.err
        if code:
            assert captured.err.startswith("error: edit region bounds must be finite")

    @pytest.mark.parametrize("res, origin_x, match", [
        (0.0, 0.0, "resolution must be finite"), (1e-320, 0.0, "resolution must be finite"),
        (float("nan"), 0.0, "resolution must be finite"), (0.05, float("inf"), "origin must be finite"),
    ], ids=["zero-resolution", "subnormal-resolution", "nan-resolution", "infinite-origin"])
    def test_map_file_with_bad_geometry_exits_2(self, tmp_path, capsys, res, origin_x, match):
        path = tmp_path / "bad.hfld"
        path.write_bytes(struct.pack("<4sHIIddd", b"HFLD", 1, 4, 4, res, origin_x, 0.0)
                         + bytes(4 * 16))
        assert main(["edit-map", "--map", str(path), "--xmin", "0", "--ymin", "0",
                     "--xmax", "1", "--ymax", "0.5", "--height", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err and "Traceback" not in err

    def test_missing_map_file(self, tmp_path, capsys):
        code = main(["edit-map", "--map", str(tmp_path / "nope.hfld"),
                     "--xmin", "0", "--ymin", "0", "--xmax", "1",
                     "--ymax", "1", "--height", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.hfld" in err and "cannot write" not in err


class TestStream:
    def test_streams_run_logs(self, tmp_path, capsys):
        cfg = PipelineConfig(
            trajectory=TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                                      duration=0.5, speed=1.0),
            noise=NoiseConfig(odom_pos_std=0.01), seed=2)
        run_dir = tmp_path / "run"
        res = run_pipeline(cfg, run_dir)
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(2.0)
        port = rx.getsockname()[1]
        code = main(["stream", "--endpoint", f"127.0.0.1:{port}",
                     "--run-dir", str(run_dir)])
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        sent = int(out_lines[0].split()[1])
        assert out_lines[1] == "dropped 0"
        # every fused pose, plus a reward and a map fragment per tick
        assert sent == res.fused_pose_count + 2 * res.policy_tick_count
        decode_message(rx.recv(2048))  # first datagram parses
        rx.close()

    def test_reward_datagrams_match_the_live_run(self, tmp_path, capsys):
        """stream sends each record's weighted terms in TERMS order, the
        datagram the live run sent, whatever else a record holds."""
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(2.0)
        endpoint = "127.0.0.1:%d" % rx.getsockname()[1]

        def rewards(count):
            msgs = [decode_message(rx.recv(2048)) for _ in range(count)]
            return [(m.timestamp_ns, m.values.tolist()) for m in msgs
                    if isinstance(m, RewardMessage)]

        cfg = PipelineConfig(terrain=TerrainSpec(TerrainType.GAP, 5), endpoint=endpoint,
                             trajectory=TrajectorySpec(kind=TrajectoryKind.CONSTANT_VELOCITY,
                                                       duration=0.2, speed=1.0))
        run_dir = tmp_path / "run"
        res = run_pipeline(cfg, run_dir)
        live = rewards(res.telemetry_sent)
        assert len(live) == res.policy_tick_count
        assert all(len(values) == len(TERMS) for _, values in live)
        log = run_dir / "rewards.jsonl"
        recs = read_jsonl(log)
        recs[0] = {"weighted_extra": 1.0, **recs[0]}
        log.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        assert main(["stream", "--endpoint", endpoint, "--run-dir", str(run_dir)]) == 0
        sent = int(capsys.readouterr().out.split()[1])
        streamed = rewards(sent)
        rx.close()
        assert streamed == live

    @pytest.mark.parametrize("cut, match", [(8, "shorter than its header"),
                                            (16 + 40, "shorter than its 17x11 cells"),
                                            (0, "holds 3 local maps for 10 reward records")])
    def test_truncated_local_maps_exit_2(self, tmp_path, capsys, cut, match):
        cfg = PipelineConfig(trajectory=TrajectorySpec(
            kind=TrajectoryKind.CONSTANT_VELOCITY, duration=0.2, speed=1.0))
        run_dir = tmp_path / "run"
        run_pipeline(cfg, run_dir)
        maps = run_dir / "localmaps.bin"
        maps.write_bytes(maps.read_bytes()[:3 * (16 + 17 * 11 * 4) + cut])  # 3 whole blobs
        code = main(["stream", "--endpoint", "127.0.0.1:9", "--run-dir", str(run_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert match in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("log, record, match", [
        ("fused_poses.jsonl", '{"timestamp_ns": 1}', "no 'px'"),
        ("fused_poses.jsonl", '[1, 2, 3]', "not an object"),
        ("fused_poses.jsonl", '{"timestamp_ns": 1, "px": 0, "py": 0, "pz": 0, '
                              '"qw": "one", "qx": 0, "qy": 0, "qz": 0}', "'qw' is not"),
        ("rewards.jsonl", '{"total": 0.0}', "no 'timestamp_ns'"),
        ("rewards.jsonl", '{"timestamp_ns": 1, "total": 0.0}', "no 'weighted_t_l_tracking'"),
    ])
    def test_damaged_record_exits_2(self, tmp_path, capsys, log, record, match):
        cfg = PipelineConfig(trajectory=TrajectorySpec(
            kind=TrajectoryKind.CONSTANT_VELOCITY, duration=0.2, speed=1.0))
        run_dir = tmp_path / "run"
        run_pipeline(cfg, run_dir)
        with open(run_dir / log, "a") as f:
            f.write(record + "\n")
        code = main(["stream", "--endpoint", "127.0.0.1:9", "--run-dir", str(run_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert match in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_unreadable_log_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        (run_dir / "fused_poses.jsonl").mkdir(parents=True)
        code = main(["stream", "--endpoint", "127.0.0.1:9", "--run-dir", str(run_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: damaged run log in {run_dir}: ")
        assert "cannot write" not in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_bad_endpoint(self, tmp_path, capsys):
        code = main(["stream", "--endpoint", "nonsense",
                     "--run-dir", str(tmp_path)])
        assert code == 2

    def test_missing_run_dir(self, tmp_path, capsys):
        code = main(["stream", "--endpoint", "127.0.0.1:9000",
                     "--run-dir", str(tmp_path / "void")])
        assert code == 2
        assert "no pose log" in capsys.readouterr().err


class TestConfigRef:
    def test_prints_reference(self, capsys):
        assert main(["config-ref"]) == 0
        out = capsys.readouterr().out
        assert "[run]" in out and "[rewards]" in out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "ref.ini"
        assert main(["config-ref", "--out", str(path)]) == 0
        assert "[fusion]" in path.read_text()
        assert load_config(path) == PipelineConfig()


class TestUnwritableOutput:
    """An output path below a regular file is a usage problem: exit 2 with
    the path, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "{bad}"],
        ["gen", "--out", "{ok}", "--csv", "{bad}"],
        ["run", "--config", "{cfg}", "--out", "{bad}"],
        ["bench", "--iters", "5", "--out", "{bad}"],
        ["bench", "--iters", "5", "--json", "{bad}"],
        ["config-ref", "--out", "{bad}"],
    ], ids=["gen", "gen-csv", "run", "bench-out", "bench-json", "config-ref"])
    def test_exits_2(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        (tmp_path / "cfg.ini").write_text(RUN_CONFIG)
        paths = dict(bad=str(tmp_path / "file" / "out"), ok=str(tmp_path / "ok.hfld"),
                     cfg=str(tmp_path / "cfg.ini"))
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and paths["bad"] in err
        assert "Traceback" not in err

    def test_edit_map_in_place(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tile.hfld"
        assert main(["gen", "--out", str(path)]) == 0

        def refuse(hf, out):
            raise PermissionError(13, "Permission denied", str(out))

        monkeypatch.setattr("terraforge.fileformats.write_heightfield", refuse)
        code = main(["edit-map", "--map", str(path), "--xmin", "2.0", "--ymin", "0.0",
                     "--xmax", "3.0", "--ymax", "1.0", "--height", "0.3"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {path}: Permission denied" in err
        assert "Traceback" not in err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_bad_log_level_warns_but_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("TERRAFORGE_LOG", "chatty")
        assert main(["config-ref"]) == 0
        assert "TERRAFORGE_LOG" in capsys.readouterr().err

    @staticmethod
    def _console_script(args, cwd, **env_vars):
        # Run what the console-script wrapper generated from this checkout's
        # pyproject.toml would run, so no install is needed and no other
        # copy of terraforge on PATH can stand in for this one.
        tomllib = pytest.importorskip("tomllib")
        src_dir = Path(terraforge.__file__).resolve().parents[1]
        with open(src_dir.parent / "pyproject.toml", "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["terraforge"]
        module, attr = entry.split(":")
        wrapper = (f'import sys; sys.argv[0] = "terraforge"; '
                   f'from {module} import {attr}; sys.exit({attr}())')
        env = dict(os.environ, **env_vars)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-c", wrapper, *args],
                              capture_output=True, text=True, timeout=60,
                              env=env, cwd=cwd)

    def test_console_script_installed(self, tmp_path):
        proc = self._console_script(["config-ref"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "[terrain]" in proc.stdout

    def test_info_log_reports_the_run_on_stderr(self, tmp_path):
        (tmp_path / "cfg.ini").write_text(RUN_CONFIG)
        proc = self._console_script(["run", "--config", "cfg.ini", "--out", "out"],
                                    tmp_path, TERRAFORGE_LOG="info")
        assert proc.returncode == 0, proc.stderr
        assert ("INFO terraforge.pipeline: run to out: 201 fused poses, 50 policy ticks, "
                "11 scans, 0 rejected_stale, 0 skipped_imu, 0 reseeds\n") in proc.stderr
        assert "fused_pose_count 201" in proc.stdout

    @pytest.mark.skipif(shutil.which("terraforge") is None,
                        reason="terraforge console script not on PATH")
    def test_installed_console_script_runs(self):
        proc = subprocess.run(["terraforge", "config-ref"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "[terrain]" in proc.stdout
