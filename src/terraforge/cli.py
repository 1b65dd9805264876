"""Command-line front end.

Each subcommand reads its inputs, does its work and prints; `main` alone
turns an exception into an exit code, so the CLI prints no traceback:
- 2 for a ValueError (a bad argument, or a config that cannot run, which
  is refused when it loads), a sensor driven underground, or an output
  path that cannot be written (an OSError that names a file; a failed
  read is re-raised as a ValueError that names what was read);
- 3 for a broken pipeline invariant.
`bench` also exits 3 over its latency budget. An OSError that names no
file propagates. TERRAFORGE_LOG selects verbosity (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileformats, telemetry
from .config import PipelineConfig, load_config, reference_text
from .mapping import VirtualEdit, edit_heightfield
from .pipeline import PipelineInvariantError, run_bench, run_pipeline
from .rewards import REWARD_KEYS, WEIGHTED
from .sensors import SensorUnderground
from .terrain import (PARAMETER_NAMES, Robot, TerrainSpec, TerrainType,
                      generate, terrain_parameter)

log = logging.getLogger("terraforge")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("TERRAFORGE_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"TERRAFORGE_LOG must be one of {sorted(_LOG_LEVELS)}",
              file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


@contextmanager
def _reading(prefix: str = "", path: str | None = None):
    """Re-raise a bad or unreadable input as a ValueError led by prefix, so
    that main never reports a failed read as a failed write. The message
    names the file read once: an OSError's own file, or else path."""
    lead = prefix if path is None else f"{prefix}{path}: "
    try:
        yield
    except OSError as e:
        if e.filename is None:
            raise ValueError(f"{lead}{e}") from e
        raise ValueError(f"{prefix}{e.filename}: {e.strerror}") from e
    except ValueError as e:
        raise ValueError(f"{lead}{e}") from e


def _config(path: str | None, seed: int | None = None) -> PipelineConfig:
    """The config at path (the defaults if None), with seed if given."""
    with _reading("config: "):
        cfg = load_config(path) if path else PipelineConfig()
        return cfg if seed is None else replace(cfg, seed=seed)


def cmd_gen(args) -> int:
    robot = Robot.from_name(args.robot)
    spec = TerrainSpec(terrain_type=TerrainType.from_name(args.terrain), level=args.level,
                       robot=robot, tile_size=args.tile_size, resolution=args.resolution,
                       seed=args.seed)
    hf = generate(spec)
    fileformats.write_heightfield(hf, args.out)
    if args.csv:
        fileformats.heightfield_to_csv(hf, args.csv)
    log.info("wrote %s (%dx%d cells)", args.out, hf.width, hf.height)
    print(f"{PARAMETER_NAMES[spec.terrain_type]} {terrain_parameter(spec):.3f}")
    return 0


def cmd_run(args) -> int:
    result = run_pipeline(_config(args.config, args.seed), args.out)
    for key, val in result.summary().items():
        print(f"{key} {val}")
    return 0


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise ValueError("--iters must be >= 1")
    report = run_bench(_config(args.config), iters=args.iters)
    text = report.render()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.json:
        record = {**report.as_record(), "config": args.config,
                  "environment": _environment()}
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if report.within_budget else 3


def _environment() -> dict:
    """What a bench record was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def cmd_edit_map(args) -> int:
    with _reading(path=args.map):
        hf = fileformats.read_heightfield(args.map)
    edit = VirtualEdit(region=(args.xmin, args.ymin, args.xmax, args.ymax),
                       height=args.height)
    edited, count = edit_heightfield(hf, edit)
    fileformats.write_heightfield(edited, args.map)
    print(f"affected_cells {count}")
    return 0


def _log_messages(run_dir: Path) -> list[tuple[int, int, bytes]]:
    """(timestamp, kind, datagram) for every pose, reward and local map
    logged in run_dir, in send order."""
    messages = []
    for rec in fileformats.read_jsonl(run_dir / "fused_poses.jsonl"):
        pose = fileformats.pose_from_record(rec)
        messages.append((pose.timestamp_ns, 0, telemetry.encode_pose(pose)))

    reward_path = run_dir / "rewards.jsonl"
    reward_ts = []
    if reward_path.exists():
        for rec in fileformats.read_jsonl(reward_path):
            # exactly the values the live run sends, in its order
            ts, *weighted = fileformats.record_fields(rec, "timestamp_ns",
                                                      *REWARD_KEYS[1:][WEIGHTED])
            reward_ts.append(ts)
            messages.append((ts, 2, telemetry.encode_reward(ts, weighted)))

    maps_path = run_dir / "localmaps.bin"
    if maps_path.exists():
        maps = fileformats.read_local_maps(maps_path)
        if len(maps) != len(reward_ts):
            raise ValueError(f"{maps_path.name} holds {len(maps)} local maps "
                             f"for {len(reward_ts)} reward records")
        for ts, blob in zip(reward_ts, maps):
            for frag in telemetry.encode_local_map(ts, blob):
                messages.append((ts, 1, frag))

    messages.sort(key=lambda m: (m[0], m[1]))
    return messages


def cmd_stream(args) -> int:
    telemetry.parse_endpoint(args.endpoint)
    run_dir = Path(args.run_dir)
    if not (run_dir / "fused_poses.jsonl").exists():
        raise ValueError(f"no pose log at {run_dir / 'fused_poses.jsonl'}")
    with _reading(f"damaged run log in {run_dir}: "):
        messages = _log_messages(run_dir)
    sent, dropped = telemetry.stream_telemetry(args.endpoint,
                                               (m[2] for m in messages))
    print(f"sent {sent}")
    print(f"dropped {dropped}")
    return 0


def cmd_config_ref(args) -> int:
    text = reference_text()
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="terraforge",
        description="terrain, sensor, fusion, and reward toolkit for "
                    "elevation-aware locomotion experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a terrain heightfield")
    g.add_argument("--robot", default="lite3", help="lite3 | x30")
    g.add_argument("--terrain", default="tau1", help="tau1..tau5 or a name")
    g.add_argument("--level", type=int, default=0, help="curriculum level 0-9")
    g.add_argument("--tile-size", type=float, default=8.0)
    g.add_argument("--resolution", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="terrain.hfld")
    g.add_argument("--csv", default=None, help="also write a CSV dump")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="replay the full pipeline from a config")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default="run_out")
    r.add_argument("--seed", type=int, default=None, help="override config seed")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bench", help="per-tick latency benchmark")
    b.add_argument("--config", default=None)
    b.add_argument("--iters", type=int, default=10000)
    b.add_argument("--out", default=None, help="also write the report here")
    b.add_argument("--json", default=None,
                   help="also write the report, with the machine it ran on, as JSON")
    b.set_defaults(func=cmd_bench)

    e = sub.add_parser("edit-map", help="write a virtual edit into a map file")
    e.add_argument("--map", required=True)
    e.add_argument("--xmin", type=float, required=True)
    e.add_argument("--ymin", type=float, required=True)
    e.add_argument("--xmax", type=float, required=True)
    e.add_argument("--ymax", type=float, required=True)
    e.add_argument("--height", type=float, required=True)
    e.set_defaults(func=cmd_edit_map)

    s = sub.add_parser("stream", help="send run logs over UDP telemetry")
    s.add_argument("--endpoint", required=True, help="host:port")
    s.add_argument("--run-dir", required=True)
    s.set_defaults(func=cmd_stream)

    c = sub.add_parser("config-ref", help="print the annotated default config")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_config_ref)
    return p


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except SensorUnderground as e:
        msg, code = f"{e}; raise [trajectory] height_above_ground to clear the terrain", 2
    except PipelineInvariantError as e:
        msg, code = f"pipeline invariant: {e}", 3
    except ValueError as e:
        msg, code = str(e), 2
    except OSError as e:
        if e.filename is None:
            raise
        msg, code = f"cannot write {e.filename}: {e.strerror}", 2
    print(f"error: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
