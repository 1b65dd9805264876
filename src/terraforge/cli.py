"""Command-line front end.

Exit codes: 0 ok, 2 usage or config problems, 3 invariant violations
(including a failed benchmark budget). TERRAFORGE_LOG selects verbosity
(error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import fileformats, telemetry
from .config import PipelineConfig, load_config, reference_text
from .mapping import VirtualEdit, edit_heightfield
from .pipeline import PipelineInvariantError, run_bench, run_pipeline
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


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _underground(e: SensorUnderground) -> int:
    return _fail(f"{e}; raise [trajectory] height_above_ground to clear the terrain", 2)


def cmd_gen(args) -> int:
    try:
        robot = Robot.from_name(args.robot)
        ttype = TerrainType.from_name(args.terrain)
        spec = TerrainSpec(terrain_type=ttype, level=args.level, robot=robot,
                           tile_size=args.tile_size, resolution=args.resolution,
                           seed=args.seed)
        hf = generate(spec)
    except ValueError as e:
        return _fail(str(e), 2)
    fileformats.write_heightfield(hf, args.out)
    if args.csv:
        fileformats.heightfield_to_csv(hf, args.csv)
    log.info("wrote %s (%dx%d cells)", args.out, hf.width, hf.height)
    print(f"{PARAMETER_NAMES[ttype]} {terrain_parameter(spec):.3f}")
    return 0


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as e:
        return _fail(f"config: {e}", 2)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        result = run_pipeline(cfg, args.out)
    except SensorUnderground as e:
        return _underground(e)
    except PipelineInvariantError as e:
        return _fail(f"pipeline invariant: {e}", 3)
    for key, val in result.summary().items():
        print(f"{key} {val}")
    return 0


def cmd_bench(args) -> int:
    if args.iters < 1:
        return _fail("--iters must be >= 1", 2)
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
    except (OSError, ValueError) as e:
        return _fail(f"config: {e}", 2)
    try:
        report = run_bench(cfg, iters=args.iters)
    except SensorUnderground as e:
        return _underground(e)
    text = report.render()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if report.within_budget else 3


def cmd_edit_map(args) -> int:
    try:
        hf = fileformats.read_heightfield(args.map)
    except (OSError, ValueError) as e:
        return _fail(str(e), 2)
    try:
        edit = VirtualEdit(region=(args.xmin, args.ymin, args.xmax, args.ymax),
                           height=args.height)
        edited, count = edit_heightfield(hf, edit)
    except ValueError as e:
        return _fail(str(e), 2)
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
            ts = int(fileformats.record_fields(rec, "timestamp_ns")[0])
            reward_ts.append(ts)
            values = [v for k, v in rec.items() if k.startswith("weighted_")]
            messages.append((ts, 2, telemetry.encode_reward(ts, values)))

    maps_path = run_dir / "localmaps.bin"
    if maps_path.exists() and reward_ts:
        for ts, (heights, res) in zip(reward_ts, fileformats.read_local_maps(maps_path)):
            for frag in telemetry.encode_local_map(ts, heights, res):
                messages.append((ts, 1, frag))

    messages.sort(key=lambda m: (m[0], m[1]))
    return messages


def cmd_stream(args) -> int:
    try:
        telemetry.parse_endpoint(args.endpoint)
    except ValueError as e:
        return _fail(str(e), 2)
    run_dir = Path(args.run_dir)
    if not (run_dir / "fused_poses.jsonl").exists():
        return _fail(f"no pose log at {run_dir / 'fused_poses.jsonl'}", 2)
    try:
        messages = _log_messages(run_dir)
    except ValueError as e:
        return _fail(f"damaged run log in {run_dir}: {e}", 2)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
