"""On-disk formats: heightfields, local map blobs, and the JSON-lines
logs. Binary layouts are little-endian.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .geometry import Pose, Quaternion, quat_normalize
from .terrain import Heightfield

HFLD_MAGIC = b"HFLD"
FORMAT_VERSION = 1

_HFLD_HEAD = struct.Struct("<4sHIIddd")
LOCAL_HEAD = struct.Struct("<HHf8x")  # rows, cols, resolution, reserved


def write_heightfield(hf: Heightfield, path) -> None:
    head = _HFLD_HEAD.pack(HFLD_MAGIC, FORMAT_VERSION, hf.width, hf.height,
                           hf.resolution, hf.origin[0], hf.origin[1])
    body = np.ascontiguousarray(hf.heights, dtype="<f4").tobytes()
    Path(path).write_bytes(head + body)


def read_heightfield(path) -> Heightfield:
    data = Path(path).read_bytes()
    if len(data) < _HFLD_HEAD.size:
        raise ValueError("truncated heightfield file")
    magic, ver, w, h, res, ox, oy = _HFLD_HEAD.unpack_from(data)
    if magic != HFLD_MAGIC:
        raise ValueError("not a heightfield file")
    if ver != FORMAT_VERSION:
        raise ValueError(f"unsupported heightfield version {ver}")
    if len(data) < _HFLD_HEAD.size + 4 * w * h:
        raise ValueError(f"truncated heightfield file: {(len(data) - _HFLD_HEAD.size) // 4} "
                         f"of {w}x{h} cells")
    cells = np.frombuffer(data, dtype="<f4", count=w * h, offset=_HFLD_HEAD.size)
    heights = cells.reshape(w, h).astype(float)
    return Heightfield(width=w, height=h, resolution=res,
                       origin=np.array([ox, oy]), heights=heights)


def heightfield_to_csv(hf: Heightfield, path) -> None:
    np.savetxt(path, hf.heights, delimiter=",", fmt="%.6f")


def encode_local_map(heights: np.ndarray, resolution: float) -> bytes:
    """16-byte header (rows u16, cols u16, resolution f32, reserved) then
    f32 cells row-major."""
    h = np.asarray(heights)
    if h.ndim != 2:
        raise ValueError("local map must be 2-D")
    if max(h.shape) > 0xFFFF:
        raise ValueError(f"a {h.shape[0]}x{h.shape[1]} local map does not fit the u16 header")
    head = LOCAL_HEAD.pack(h.shape[0], h.shape[1], resolution)
    return head + np.ascontiguousarray(h, dtype="<f4").tobytes()


def split_local_map(blob) -> tuple[int, int, float, bytes]:
    """(rows, cols, resolution, f32 cell bytes) of the local map blob at the
    start of blob; ValueError if blob is shorter than its header or cells."""
    if len(blob) < LOCAL_HEAD.size:
        raise ValueError("local map blob shorter than its header")
    rows, cols, res = LOCAL_HEAD.unpack_from(blob)
    if len(blob) < LOCAL_HEAD.size + 4 * rows * cols:
        raise ValueError(f"local map blob shorter than its {rows}x{cols} cells")
    return rows, cols, res, blob[LOCAL_HEAD.size:LOCAL_HEAD.size + 4 * rows * cols]


def decode_local_map(blob: bytes) -> tuple[np.ndarray, float]:
    """The local map at the start of blob; bytes after it are ignored."""
    rows, cols, res, cells = split_local_map(blob)
    return np.frombuffer(cells, dtype="<f4").reshape(rows, cols).astype(float), float(res)


def read_local_maps(path) -> list[bytes]:
    """Every blob in a file of back-to-back local map blobs, each checked
    as decode_local_map checks it."""
    data, off, out = Path(path).read_bytes(), 0, []
    while off < len(data):
        cells = split_local_map(memoryview(data)[off:])[3]
        out.append(data[off:off + LOCAL_HEAD.size + len(cells)])
        off += len(out[-1])
    return out


POSE_KEYS = ("timestamp_ns", "px", "py", "pz", "qw", "qx", "qy", "qz")
IMU_KEYS = ("timestamp_ns", "wx", "wy", "wz", "ax", "ay", "az")


def record_fields(rec, *keys) -> list:
    """The values of keys in one decoded log record, each a finite number,
    and a timestamp_ns an integer in [0, 2**64), which telemetry packs as a
    u64. A record that is not a JSON object, lacks a key or holds anything
    else under it raises ValueError naming the key."""
    if not isinstance(rec, dict):
        raise ValueError(f"log record is a {type(rec).__name__}, not an object")
    for k in keys:
        if k not in rec:
            raise ValueError(f"log record has no {k!r}")
        v = rec[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"log record field {k!r} is not a finite number")
        if k == "timestamp_ns" and not (isinstance(v, int) and 0 <= v < 2**64):
            raise ValueError(f"log record timestamp_ns {v!r} is not an integer in [0, 2**64)")
    return [rec[k] for k in keys]


def pose_from_record(rec: dict) -> Pose:
    ts, px, py, pz, qw, qx, qy, qz = record_fields(rec, *POSE_KEYS)
    q = quat_normalize(Quaternion(qw, qx, qy, qz))
    return Pose(np.array([px, py, pz]), q, ts)


def write_jsonl(rows, path, keys) -> None:
    """One JSON object per row, its values under keys: each line is one
    template filled with the reprs of a row's ints, floats and lists of
    floats (Python numbers, not numpy scalars), the text json.dumps writes.
    A non-finite value, which JSON cannot hold, raises ValueError."""
    template = "{" + ", ".join(f'"{k}": %r' for k in keys) + "}\n"
    with open(path, "w") as f:
        for i, row in enumerate(rows):
            line = template % tuple(row)
            # a finite repr holds no letter but e, and no key holds nan or inf
            if "nan" in line or "inf" in line:
                raise ValueError(f"{path}: log row {i} holds a non-finite value")
            f.write(line)


def read_jsonl(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]
