"""Binary telemetry for the inter-board UDP link.

Datagrams are little-endian and self-describing via a leading type tag:
pose (1), local map fragment (2), reward vector (3). Local maps fragment
at 320 cells so every datagram stays well under a 1400-byte MTU budget.
Streaming is fire-and-forget: a stale map is superseded by the next one,
so there is no retransmit and drops are only counted.
"""

from __future__ import annotations

import logging
import socket
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, Quaternion, quat_normalize

log = logging.getLogger(__name__)

MSG_POSE = 1
MSG_LOCAL_MAP = 2
MSG_REWARD = 3
MAX_FRAGMENT_CELLS = 320
MAX_DATAGRAM = 1400

_POSE = struct.Struct("<BQ3d4d")  # 65 bytes
_MAP_HEAD = struct.Struct("<BQHHHHf")
_REWARD_HEAD = struct.Struct("<BQH")


@dataclass(frozen=True, eq=False)
class LocalMapFragment:
    timestamp_ns: int
    fragment_index: int
    fragment_count: int
    rows: int
    cols: int
    resolution: float
    cells: np.ndarray  # flat slice of the row-major grid


@dataclass(frozen=True, eq=False)
class RewardMessage:
    timestamp_ns: int
    values: np.ndarray


def encode_pose(pose: Pose) -> bytes:
    q = pose.orientation
    return _POSE.pack(MSG_POSE, pose.timestamp_ns,
                      *(float(v) for v in pose.position), q.w, q.x, q.y, q.z)


def encode_local_map(timestamp_ns: int, heights: np.ndarray,
                     resolution: float) -> list[bytes]:
    """Fragment a row-major grid into <= 320-cell datagrams."""
    h = np.asarray(heights)
    if h.ndim != 2:
        raise ValueError("local map must be 2-D")
    flat = np.ascontiguousarray(h, dtype="<f4").ravel()
    count = max(1, -(-flat.size // MAX_FRAGMENT_CELLS))
    out = []
    for k in range(count):
        chunk = flat[k * MAX_FRAGMENT_CELLS:(k + 1) * MAX_FRAGMENT_CELLS]
        head = _MAP_HEAD.pack(MSG_LOCAL_MAP, timestamp_ns, k, count,
                              h.shape[0], h.shape[1], resolution)
        out.append(head + chunk.tobytes())
    return out


def encode_reward(timestamp_ns: int, values) -> bytes:
    v = np.asarray(values, dtype="<f4").ravel()
    if _REWARD_HEAD.size + 4 * v.size > MAX_DATAGRAM:
        raise ValueError("too many reward terms for one datagram")
    return _REWARD_HEAD.pack(MSG_REWARD, timestamp_ns, v.size) + v.tobytes()


def decode_message(data: bytes):
    """Parse one datagram into its typed message; raises ValueError if malformed."""
    if not data:
        raise ValueError("empty datagram")
    tag = data[0]
    if tag == MSG_POSE:
        if len(data) != _POSE.size:
            raise ValueError(f"pose message must be {_POSE.size} bytes")
        _, ts, px, py, pz, qw, qx, qy, qz = _POSE.unpack(data)
        return Pose(np.array([px, py, pz]),
                    quat_normalize(Quaternion(qw, qx, qy, qz)), ts)
    if tag == MSG_LOCAL_MAP:
        if len(data) < _MAP_HEAD.size:
            raise ValueError("truncated local map header")
        _, ts, idx, count, rows, cols, res = _MAP_HEAD.unpack_from(data)
        n = min(MAX_FRAGMENT_CELLS, rows * cols - idx * MAX_FRAGMENT_CELLS)
        fits = count == max(1, -(-rows * cols // MAX_FRAGMENT_CELLS)) and idx < count
        if not fits or len(data) != _MAP_HEAD.size + 4 * n:
            raise ValueError(f"fragment {idx} of {count} of a {rows}x{cols} map must hold {n} cells")
        cells = np.frombuffer(data, dtype="<f4", offset=_MAP_HEAD.size)
        return LocalMapFragment(ts, idx, count, rows, cols, float(res),
                                cells.astype(float))
    if tag == MSG_REWARD:
        if len(data) < _REWARD_HEAD.size:
            raise ValueError("truncated reward header")
        _, ts, n = _REWARD_HEAD.unpack_from(data)
        if len(data) != _REWARD_HEAD.size + 4 * n:
            raise ValueError(f"reward message must hold {n} values")
        values = np.frombuffer(data, dtype="<f4", offset=_REWARD_HEAD.size)
        return RewardMessage(ts, values.astype(float))
    raise ValueError(f"unknown message type {tag}")


def reassemble_local_map(fragments) -> tuple[np.ndarray, float]:
    """Rebuild the full grid from one timestamp's fragments, any order."""
    frags = sorted(fragments, key=lambda f: f.fragment_index)
    if not frags:
        raise ValueError("no fragments")
    first = frags[0]
    if len(frags) != first.fragment_count:
        raise ValueError("missing fragments")
    if [f.fragment_index for f in frags] != list(range(first.fragment_count)):
        raise ValueError("fragment indices not contiguous")
    flat = np.concatenate([f.cells for f in frags])
    return flat.reshape(first.rows, first.cols), first.resolution


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not (sep and host and port.isascii() and port.isdigit() and 0 < int(port) < 65536):
        raise ValueError(f"endpoint must be host:port with a port in 1..65535, got {endpoint!r}")
    return host, int(port)


class UdpStreamer:
    """Datagram sender with drop accounting; never raises on send."""

    def __init__(self, endpoint: str):
        self.addr = parse_endpoint(endpoint)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sent = 0
        self.dropped = 0

    def send(self, data: bytes) -> bool:
        try:
            self.sock.sendto(data, self.addr)
        except OSError as e:
            self.dropped += 1
            if self.dropped == 1:
                log.warning("telemetry drop to %s:%d: %s", *self.addr, e)
            return False
        self.sent += 1
        return True

    def close(self) -> None:
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def stream_telemetry(endpoint: str, messages) -> tuple[int, int]:
    """Send pre-encoded datagrams in order; returns (sent, dropped)."""
    with UdpStreamer(endpoint) as s:
        for m in messages:
            s.send(m)
        return s.sent, s.dropped
