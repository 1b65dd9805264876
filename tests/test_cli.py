"""CLI subcommands, exit codes, and printed output."""

import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import terraforge
from terraforge.cli import main
from terraforge.config import PipelineConfig, load_config
from terraforge.fileformats import read_heightfield
from terraforge.pipeline import run_pipeline
from terraforge.sensors import NoiseConfig, TrajectoryKind, TrajectorySpec
from terraforge.telemetry import decode_message


RUN_CONFIG = """
[trajectory]
duration = 1.0

[noise]
odom_pos_std = 0.01

[run]
seed = 5
"""


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
                                      "[run]\nmap_size = 20.01\n"])
    def test_run_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "Traceback" not in err
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

    def test_missing_map_file(self, tmp_path, capsys):
        code = main(["edit-map", "--map", str(tmp_path / "nope.hfld"),
                     "--xmin", "0", "--ymin", "0", "--xmax", "1",
                     "--ymax", "1", "--height", "0.1"])
        assert code == 2


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

    @pytest.mark.parametrize("cut, match", [(8, "shorter than its header"),
                                            (16 + 40, "shorter than its 17x11 cells")])
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
                "11 scans, 0 rejected_stale, 1 skipped_imu, 0 reseeds\n") in proc.stderr
        assert "fused_pose_count 201" in proc.stdout

    @pytest.mark.skipif(shutil.which("terraforge") is None,
                        reason="terraforge console script not on PATH")
    def test_installed_console_script_runs(self):
        proc = subprocess.run(["terraforge", "config-ref"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "[terrain]" in proc.stdout
