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
from .sensors import ImuSample
from .terrain import Heightfield

HFLD_MAGIC = b"HFLD"
FORMAT_VERSION = 1

_HFLD_HEAD = struct.Struct("<4sHIIddd")
_LOCAL_HEAD = struct.Struct("<HHf8x")  # rows, cols, resolution, reserved


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
    head = _LOCAL_HEAD.pack(h.shape[0], h.shape[1], resolution)
    return head + np.ascontiguousarray(h, dtype="<f4").tobytes()


def decode_local_map(blob: bytes) -> tuple[np.ndarray, float]:
    """The local map at the start of blob; bytes after it are ignored."""
    if len(blob) < _LOCAL_HEAD.size:
        raise ValueError("local map blob shorter than its header")
    rows, cols, res = _LOCAL_HEAD.unpack_from(blob)
    if len(blob) < _LOCAL_HEAD.size + 4 * rows * cols:
        raise ValueError(f"local map blob shorter than its {rows}x{cols} cells")
    cells = np.frombuffer(blob, dtype="<f4", count=rows * cols,
                          offset=_LOCAL_HEAD.size)
    return cells.reshape(rows, cols).astype(float), float(res)


def read_local_maps(path) -> list[tuple[np.ndarray, float]]:
    """Every (heights, resolution) in a file of back-to-back local map blobs."""
    blob, off, out = memoryview(Path(path).read_bytes()), 0, []
    while off < len(blob):
        out.append(decode_local_map(blob[off:]))
        off += _LOCAL_HEAD.size + 4 * out[-1][0].size
    return out


LOCAL_BLOB_HEADER_SIZE = _LOCAL_HEAD.size


def pose_record(pose: Pose) -> dict:
    q = pose.orientation
    return {
        "timestamp_ns": pose.timestamp_ns,
        "px": float(pose.position[0]), "py": float(pose.position[1]),
        "pz": float(pose.position[2]),
        "qw": q.w, "qx": q.x, "qy": q.y, "qz": q.z,
    }


def record_fields(rec, *keys) -> list:
    """The values of keys in one decoded log record, each a finite number.
    A record that is not a JSON object, lacks a key or holds anything else
    under it raises ValueError naming the key."""
    if not isinstance(rec, dict):
        raise ValueError(f"log record is a {type(rec).__name__}, not an object")
    for k in keys:
        if k not in rec:
            raise ValueError(f"log record has no {k!r}")
        v = rec[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"log record field {k!r} is not a finite number")
    return [rec[k] for k in keys]


def pose_from_record(rec: dict) -> Pose:
    ts, px, py, pz, qw, qx, qy, qz = record_fields(
        rec, "timestamp_ns", "px", "py", "pz", "qw", "qx", "qy", "qz")
    q = quat_normalize(Quaternion(qw, qx, qy, qz))
    return Pose(np.array([px, py, pz]), q, int(ts))


def imu_record(sample: ImuSample) -> dict:
    w, a = sample.angular_velocity, sample.linear_acceleration
    return {
        "timestamp_ns": sample.timestamp_ns,
        "wx": float(w[0]), "wy": float(w[1]), "wz": float(w[2]),
        "ax": float(a[0]), "ay": float(a[1]), "az": float(a[2]),
    }


def write_jsonl(records, path) -> None:
    # repr-based float formatting keeps identical runs byte-identical
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_jsonl(path) -> list[dict]:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
