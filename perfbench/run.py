#!/usr/bin/env python3
"""Replay benchmark for terraforge.

Times `terraforge.pipeline.run_pipeline`, the real replay path, on the
workloads in spec.json. One client runs replays back to back (a closed
loop) in this process, with one extra thread only for the loopback
telemetry receiver of workloads that stream telemetry.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload slope_replay --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced replays and reports its per-layer metrics.
Times are CPU seconds of the thread that runs terraforge (wall seconds
are printed beside them): on a shared virtual machine the hypervisor
steals the virtual CPU for long stretches, which wall time counts and
thread CPU time does not.
Every replay's outputs are checked; the last stdout line is the JSON
result. Outputs, results and span dumps go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_terraforge():
    """Import terraforge from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import terraforge
    import terraforge.pipeline  # noqa: F401  (the module under test)
    if not Path(terraforge.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"terraforge imported from {terraforge.__file__}, "
                          f"not from {SRC}")
    return terraforge


def config_text(workload: dict, seed: int, endpoint: str | None,
                duration: float | None = None) -> str:
    """The workload's INI with [run] seed (and endpoint) written in."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string((HERE / workload["config"]).read_text())
    if not parser.has_section("run"):
        parser.add_section("run")
    parser["run"]["seed"] = str(seed)
    if endpoint is not None:
        parser["run"]["endpoint"] = endpoint
    if duration is not None:
        if not parser.has_section("trajectory"):
            parser.add_section("trajectory")
        parser["trajectory"]["duration"] = repr(duration)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


class LoopbackReceiver:
    """Binds 127.0.0.1:0 and counts datagrams on one draining thread."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.endpoint = "127.0.0.1:%d" % self.sock.getsockname()[1]
        self.received = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drain, name="telemetry-rx")

    def _drain(self):
        buf = bytearray(65536)
        while not self._stop.is_set():
            try:
                self.sock.recv_into(buf)
            except socket.timeout:
                continue
            self.received += 1

    def wait_for(self, count: int, timeout: float = 2.0) -> int:
        """Wait until `count` datagrams arrived in total or timeout passes."""
        deadline = time.monotonic() + timeout
        while self.received < count and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.received

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sock.close()


def measure_setup(text: str, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(CPU, wall) seconds to import terraforge, parse the config and
    generate the terrain, each in a fresh interpreter."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              input=text, capture_output=True, text=True,
                              timeout=120, check=True)
        cpu, wall = proc.stdout.split()
        out.append((float(cpu), float(wall)))
    return out


def file_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def expected_counts(cfg, tf) -> dict[str, int]:
    """run_summary.json counts in closed form from the config."""
    fused = math.floor(cfg.trajectory.duration * cfg.imu_hz) + 1
    policy = fused // cfg.ticks_per_policy
    out = {"fused_pose_count": fused, "policy_tick_count": policy,
           "scan_count": math.floor(cfg.trajectory.duration * cfg.lidar_hz) + 1}
    if cfg.endpoint:
        cells = cfg.local_map.samples_x * cfg.local_map.samples_y
        fragments = -(-cells // tf.telemetry.MAX_FRAGMENT_CELLS)
        out["datagrams"] = policy * (2 + fragments)  # pose + map + reward
    return out


def check_replay(out_dir: Path, expected: dict[str, int],
                 reference: dict[str, str] | None) -> tuple[dict, list[str]]:
    """Digests of a replay's outputs and every check they fail."""
    digests = file_digests(out_dir)
    problems = []
    try:
        summary = json.loads((out_dir / "run_summary.json").read_text())
    except (OSError, ValueError) as e:
        return digests, [f"run_summary.json unreadable: {e}"]
    if not isinstance(summary, dict):
        return digests, ["run_summary.json is not a JSON object"]
    summary["datagrams"] = (summary.get("telemetry_sent", 0)
                            + summary.get("telemetry_dropped", 0))
    for key, want in expected.items():
        if summary.get(key) != want:
            problems.append(f"{key} = {summary.get(key)}, expected {want}")
    if reference is not None and digests != reference:
        bad = sorted(k for k in digests.keys() | reference.keys()
                     if digests.get(k) != reference.get(k))
        problems.append(f"output digests differ: {', '.join(bad)}")
    return digests, problems


@dataclasses.dataclass
class Replay:
    cpu_s: float
    wall_s: float
    traced: bool
    digests: dict
    problems: list
    sent: int
    received: int
    fusion_stats: dict = dataclasses.field(default_factory=dict)


class Replayer:
    """Runs one workload's replays and checks each one's outputs.

    The first replay's digests become the reference for the rest, unless
    pinned digests are given.
    """

    def __init__(self, tf, cfg, out_dir: Path, pinned: dict | None,
                 receiver: LoopbackReceiver | None):
        self.run_pipeline = tf.pipeline.run_pipeline
        self.cfg = cfg
        self.out_dir = out_dir
        self.reference = pinned
        self.receiver = receiver
        self.expected = expected_counts(cfg, tf)
        self.replays: list[Replay] = []

    def replay(self, tracer=None) -> Replay:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rx0 = self.receiver.received if self.receiver else 0
        if tracer is not None:
            tracer.replay = len(self.replays)
        c0, w0 = time.thread_time(), time.perf_counter()
        if tracer is None:
            result = self.run_pipeline(self.cfg, self.out_dir)
        else:
            result = tracer.call("pipeline.run_pipeline", self.run_pipeline,
                                 self.cfg, self.out_dir)
        cpu_s, wall_s = time.thread_time() - c0, time.perf_counter() - w0
        received = 0
        if self.receiver:
            received = self.receiver.wait_for(rx0 + result.telemetry_sent) - rx0
        digests, problems = check_replay(self.out_dir, self.expected, self.reference)
        if self.reference is None:
            self.reference = digests
        rep = Replay(cpu_s, wall_s, tracer is not None, digests, problems,
                     result.telemetry_sent, received)
        self.replays.append(rep)
        return rep


def replay_loop(replayer: Replayer, seconds: float, tracer=None) -> None:
    """Replay back to back until one more would pass `seconds`.

    With a tracer, replays alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    start = time.perf_counter()
    durations = []
    while True:
        traced = tracer is not None and len(replayer.replays) % 2 == 1
        if traced:
            with tracer.installed():
                rep = replayer.replay(tracer)
                fuser = tracer.fuser
            stats = getattr(fuser, "stats", None)
            rep.fusion_stats = dict(vars(stats)) if stats is not None else {}
            tracer.fuser = None
        else:
            rep = replayer.replay()
        durations.append(rep.wall_s)
        if tracer is not None and len(replayer.replays) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((SRC / "terraforge").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": src.hexdigest(),
            "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout's .git, read without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  duration: float | None = None) -> dict:
    """Run one workload; returns the full result with every metric.

    `duration` shortens the simulated time; pinned digests then do not apply.
    """
    spec = load_spec()["workloads"][workload]
    tf = import_terraforge()
    pinned = spec["pinned_sha256"] if seed == 0 and duration is None else None
    out_dir = OUT_ROOT / workload / "replay"
    with LoopbackReceiver() if spec["telemetry"] else contextlib.nullcontext() as rx:
        text = config_text(spec, seed, rx.endpoint if rx else None, duration)
        cfg = tf.load_config(text, is_text=True)
        setup = measure_setup(text)
        replayer = Replayer(tf, cfg, out_dir, pinned, rx)
        tracer = Tracer() if trace else None
        replay_loop(replayer, seconds, tracer)

    reps = replayer.replays
    untraced = [r.cpu_s for r in reps if not r.traced]
    failed = sum(1 for r in reps if r.problems)
    replay_s = statistics.median(untraced)
    metrics = {
        "setup_s": (statistics.median(cpu for cpu, _ in setup), "s"),
        "replay_s": (replay_s, "s"),
        "realtime_factor": (cfg.trajectory.duration / replay_s, "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "replay_fail_ratio": (failed / len(reps), "ratio"),
    }
    result = {
        "workload": workload, "env": environment(seed), "config": text,
        "trace": trace, "attempted": len(reps), "failed": failed,
        "setup_samples_s": setup,
        "replays": [dataclasses.asdict(r) for r in reps],
    }
    if tracer is not None:
        traced = [r for r in reps if r.traced]
        pattern = cfg.scan_pattern
        metrics.update(layer_metrics(
            tracer, pattern.n_azimuth * pattern.n_elevation,
            [r.fusion_stats for r in traced],
            [r.received for r in traced],
            [r.cpu_s for r in traced], untraced))
        result["missing"] = tracer.missing
        result["trace_file"] = str(_write_json(
            OUT_ROOT / f"{workload}-seed{seed}-spans.json", tracer.dump()))
    result["metrics"] = metrics
    return result


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj) + "\n")
    return path


def report(result: dict, names: list[str]) -> dict:
    """Print the human-readable report; return the last-line JSON object."""
    m = result["metrics"]
    reps = result["replays"]
    print(f"perfbench {result['workload']} seed={result['env']['seed']} "
          f"trace={int(result['trace'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    untraced = [r for r in reps if not r["traced"]]
    setup = result["setup_samples_s"]
    print(f"setup_s = {m['setup_s'][0]:.4f} s CPU  (median of {len(setup)}; wall "
          f"median {statistics.median(w for _, w in setup):.4f} s)")
    cpu = [r["cpu_s"] for r in untraced]
    wall = [r["wall_s"] for r in untraced]
    print(f"replay_s = {m['replay_s'][0]:.4f} s CPU  (median of {len(untraced)} untraced "
          f"replays, min {min(cpu):.4f}, max {max(cpu):.4f}; wall median "
          f"{statistics.median(wall):.4f} s, min {min(wall):.4f}, max {max(wall):.4f})")
    print(f"realtime_factor = {m['realtime_factor'][0]:.4f} x")
    print(f"peak_rss_mb = {m['peak_rss_mb'][0]:.2f} MiB")
    print(f"replay_fail_ratio = {m['replay_fail_ratio'][0]:.4f} ratio  "
          f"({result['failed']} of {result['attempted']} replays failed)")
    if any(r["sent"] for r in reps):
        print("telemetry sent/received per replay: "
              + ", ".join(f"{r['sent']}/{r['received']}" for r in reps))
    for i, r in enumerate(reps):
        for p in r["problems"]:
            print(f"replay {i} FAILED: {p}")
    if result["trace"]:
        for name in sorted(set(m) - {"setup_s", "replay_s", "realtime_factor",
                                      "peak_rss_mb", "replay_fail_ratio"}):
            value, unit = m[name]
            shown = "not exercised" if value is None else f"{value:.6g} {unit}"
            print(f"  {name} = {shown}")
        for target in result["missing"]:
            print(f"  missing wrapper target: {target}")
        print(f"spans written to {result['trace_file']}")
    out = {"correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {n: {"value": m[n][0] if m[n][0] is not None else 0.0,
                           "unit": m[n][1]} for n in names}}
    return out


def main(argv=None) -> int:
    manifest = load_manifest()
    workloads = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(workloads, args)
    try:
        import_terraforge()
    except ImportError as e:
        print(f"perfbench: cannot import terraforge from {SRC}: {e}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    names = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    line = report(result, names)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    path = _write_json(OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                       result)
    print(f"result written to {path}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(workloads: list[str], args) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            line = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for key, val in line["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
