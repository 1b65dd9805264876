"""In-memory span tracing of terraforge's layers, installed from outside
the package.

`Tracer.installed()` swaps the functions and methods that
`terraforge.pipeline.run_pipeline` reaches for thin wrappers that record a
span (name, start, end, parent span, replay id, work count) around each
call, and puts the originals back on exit. Span times are the calling
thread's CPU time, so time the hypervisor steals from the virtual CPU is
not charged to a layer. Wrappers pass arguments and
results through untouched, so a traced replay writes the same bytes as an
untraced one. A target that no longer exists is reported as missing.

`layer_metrics` turns the spans of the traced replays into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time

import numpy as np


def _size_of_xs(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["xs"]))


def _points_of_scan(args, kwargs, result):
    return int(result.points.shape[0])


def _shifted(args, kwargs, result):
    return int(tuple(result) != (0, 0))


def _cells_touched(args, kwargs, result):
    return int(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _blob_bytes(args, kwargs, result):
    return len(result)


def _delivered(args, kwargs, result):
    return int(bool(result))


# (span name, module, attribute path, work count of one call). Module-level
# names are patched on the module that calls them, because pipeline.py
# resolves its imports at call time from its own globals.
TARGETS = (
    ("terrain.generate", "terraforge.pipeline", "generate", None),
    ("terrain.sample_height_vec", "terraforge.sensors", "sample_height_vec", _size_of_xs),
    ("sensors.imu_stream", "terraforge.pipeline", "imu_stream", None),
    ("sensors.odometry_stream", "terraforge.pipeline", "odometry_stream", None),
    ("sensors.apply_delay", "terraforge.pipeline", "apply_delay", None),
    ("sensors.lidar_scan", "terraforge.pipeline", "lidar_scan", _points_of_scan),
    ("fusion.handle_imu", "terraforge.fusion", "PoseFuser.handle_imu", None),
    ("fusion.handle_odometry", "terraforge.fusion", "PoseFuser.handle_odometry", None),
    ("mapping.recenter", "terraforge.mapping", "ElevationMap.recenter", _shifted),
    ("mapping.integrate_scan", "terraforge.mapping", "ElevationMap.integrate_scan", _cells_touched),
    ("mapping.extract_local", "terraforge.mapping", "ElevationMap.extract_local", None),
    ("mapping.inject_map_noise", "terraforge.pipeline", "inject_map_noise", None),
    ("rewards.fit_plane", "terraforge.pipeline", "fit_plane", None),
    ("rewards.compute_rewards", "terraforge.pipeline", "compute_rewards", None),
    ("rewards.feet_edge_penalty", "terraforge.rewards", "feet_edge_penalty", None),
    ("observations.history_push", "terraforge.observations", "ObservationHistory.push", None),
    ("fileformats.write_jsonl", "terraforge.pipeline", "write_jsonl", _file_bytes),
    ("fileformats.encode_local_map", "terraforge.pipeline", "encode_local_map", _blob_bytes),
    ("telemetry.encode_pose", "terraforge.telemetry", "encode_pose", None),
    ("telemetry.encode_local_map", "terraforge.telemetry", "encode_local_map", None),
    ("telemetry.encode_reward", "terraforge.telemetry", "encode_reward", None),
    ("telemetry.send", "terraforge.telemetry", "UdpStreamer.send", _delivered),
)

ROOT_SPAN = "pipeline.run_pipeline"
FUSER_SPAN = "fusion.handle_odometry"  # its first argument is the PoseFuser
# spans that open the handling of one delivered event in the replay loop
EVENT_ENTRIES = ("fusion.handle_imu", "fusion.handle_odometry", "mapping.recenter")

# Span fields: name, start ns, end ns, parent index, replay id, work count.
NAME, START, END, PARENT, REPLAY, COUNT = range(6)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path in a module, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    """Records spans in memory; one replay at a time, on one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.replay: int | None = None
        self.fuser = None  # last PoseFuser seen, to read its stats
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        keep_self = name == FUSER_SPAN

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self.replay, None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.thread_time_ns()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            if keep_self:
                self.fuser = args[0]
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every resolvable target for the duration of the block."""
        restore = []
        self.missing = []
        try:
            for name, module, path, count in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}:{path}")
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original, count))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its child spans."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "replay",
                       "count", "self_ns"],
            "missing": self.missing,
            "spans": [s + [t] for s, t in zip(self.spans, self.self_times())],
        }


# Per-call timings: metric prefix (ending in its unit), the spans it pools,
# and ns per unit. Each yields <prefix>.p50, <prefix>.p99 and, with the unit
# dropped, <layer>.<name>.calls per replay.
TIMINGS = (
    ("terrain.generate.ms", ("terrain.generate",), 1e6),
    ("sensors.lidar_scan.ms", ("sensors.lidar_scan",), 1e6),
    ("fusion.handle_imu.us", ("fusion.handle_imu",), 1e3),
    ("fusion.handle_odometry.us", ("fusion.handle_odometry",), 1e3),
    ("mapping.integrate_scan.ms", ("mapping.integrate_scan",), 1e6),
    ("mapping.recenter.ms", ("mapping.recenter",), 1e6),
    ("mapping.extract_local.us", ("mapping.extract_local",), 1e3),
    ("mapping.inject_map_noise.us", ("mapping.inject_map_noise",), 1e3),
    ("rewards.fit_plane.us", ("rewards.fit_plane",), 1e3),
    ("rewards.compute_rewards.us", ("rewards.compute_rewards",), 1e3),
    ("rewards.feet_edge_penalty.us", ("rewards.feet_edge_penalty",), 1e3),
    ("observations.history_push.us", ("observations.history_push",), 1e3),
    ("fileformats.encode_local_map.us", ("fileformats.encode_local_map",), 1e3),
    ("telemetry.encode.us", ("telemetry.encode_pose", "telemetry.encode_local_map",
                             "telemetry.encode_reward"), 1e3),
    ("telemetry.send.us", ("telemetry.send",), 1e3),
)
_UNITS = {1e6: "ms", 1e3: "us"}
STREAMS = ("sensors.imu_stream", "sensors.odometry_stream", "sensors.apply_delay")
FUSION_STATS = ("predicts", "updates", "rejected_stale", "skipped_imu", "reseeds")


def _pct(values, q):
    return float(np.percentile(values, q)) if values else None


def layer_metrics(tracer: Tracer, rays_per_scan: int, fusion_stats: list[dict],
                  received: list[int], traced_s: list[float],
                  untraced_s: list[float]) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics over the traced replays: name -> (value, unit).

    fusion_stats and received hold one entry per traced replay. A value
    of None means the layer was not called (or its target is missing).
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    replays = sorted({s[REPLAY] for s in spans})
    n = max(len(replays), 1)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def count(i):
        return spans[i][COUNT] or 0

    def durs(names):
        return [dur(i) for nm in names for i in by_name.get(nm, ())]

    def per_replay(names, value):
        """Median over replays of sum(value(span index)) over the named spans."""
        totals = dict.fromkeys(replays, 0)
        for nm in names:
            for i in by_name.get(nm, ()):
                totals[spans[i][REPLAY]] += value(i)
        return statistics.median(totals.values()) if totals else None

    out: dict[str, tuple[float | None, str]] = {}
    for prefix, names, scale in TIMINGS:
        d = durs(names)
        unit = _UNITS[scale]
        p50, p99 = _pct(d, 50), _pct(d, 99)
        out[prefix + ".p50"] = (None if p50 is None else p50 / scale, unit)
        out[prefix + ".p99"] = (None if p99 is None else p99 / scale, unit)
        out[prefix.rsplit(".", 1)[0] + ".calls"] = (len(d) / n, "count")

    out["sensors.streams.s"] = (per_replay(STREAMS, dur) * 1e-9, "s")
    out["fileformats.write_jsonl.s"] = (
        per_replay(("fileformats.write_jsonl",), dur) * 1e-9, "s")
    out["fileformats.write_jsonl.bytes"] = (
        per_replay(("fileformats.write_jsonl",), count), "bytes")
    out["terrain.sample_height_vec.samples"] = (
        per_replay(("terrain.sample_height_vec",), count), "count")

    lidar = set(by_name.get("sensors.lidar_scan", ()))
    hits = per_replay(("sensors.lidar_scan",), count)
    lidar_samples = per_replay(
        ("terrain.sample_height_vec",),
        lambda i: count(i) if spans[i][PARENT] in lidar else 0)
    rays = len(lidar) / n * rays_per_scan
    out["sensors.lidar_scan.hits"] = (hits, "count")
    out["sensors.lidar_scan.rays"] = (rays, "count")
    out["sensors.lidar_scan.hit_ratio"] = (hits / rays if rays else None, "ratio")
    out["sensors.lidar_scan.samples_per_hit"] = (
        lidar_samples / hits if hits else None, "samples/hit")

    out["mapping.integrate_scan.cells"] = (
        per_replay(("mapping.integrate_scan",), count), "count")
    out["mapping.recenter.shifts"] = (per_replay(("mapping.recenter",), count), "count")

    for key in FUSION_STATS:
        vals = [st[key] for st in fusion_stats if key in st]
        out["fusion." + key] = (statistics.median(vals) if vals else None, "count")

    out["telemetry.sent"] = (per_replay(("telemetry.send",), count), "count")
    out["telemetry.dropped"] = (per_replay(("telemetry.send",), lambda i: 1 - count(i)),
                                "count")
    out["telemetry.received"] = (statistics.median(received) if received else None, "count")

    roots = by_name.get(ROOT_SPAN, ())
    out["pipeline.self_s"] = (
        statistics.median(selfs[i] for i in roots) * 1e-9 if roots else None, "s")

    # one 200 Hz IMU event: from its handle_imu entry to the next handler entry
    gaps = []
    for r in replays:
        entries = [s for s in spans if s[REPLAY] == r and s[NAME] in EVENT_ENTRIES]
        gaps += [b[START] - a[START] for a, b in zip(entries, entries[1:])
                 if a[NAME] == "fusion.handle_imu"]
    p50, p99 = _pct(gaps, 50), _pct(gaps, 99)
    out["pipeline.imu_event.us.p50"] = (None if p50 is None else p50 / 1e3, "us")
    out["pipeline.imu_event.us.p99"] = (None if p99 is None else p99 / 1e3, "us")

    overhead = (statistics.median(traced_s) - statistics.median(untraced_s)
                if traced_s and untraced_s else None)
    out["trace.overhead_s"] = (overhead, "s")
    return out
