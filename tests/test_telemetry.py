"""Datagram encoding, fragmentation, reassembly, and loopback streaming."""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraforge.geometry import Pose, Quaternion
from terraforge.telemetry import (
    MAX_DATAGRAM,
    MAX_FRAGMENT_CELLS,
    MSG_LOCAL_MAP,
    MSG_POSE,
    MSG_REWARD,
    LocalMapFragment,
    RewardMessage,
    UdpStreamer,
    decode_message,
    encode_local_map,
    encode_pose,
    encode_reward,
    parse_endpoint,
    reassemble_local_map,
    stream_telemetry,
)


def make_pose():
    return Pose(np.array([1.5, -2.25, 0.125]),
                Quaternion(0.8, 0.0, 0.6, 0.0), 987_654_321)


class TestPoseMessage:
    def test_wire_size_and_tag(self):
        data = encode_pose(make_pose())
        assert len(data) == 65
        assert data[0] == MSG_POSE

    def test_round_trip_exact(self):
        back = decode_message(encode_pose(make_pose()))
        assert isinstance(back, Pose)
        assert back.timestamp_ns == 987_654_321
        assert np.array_equal(back.position, [1.5, -2.25, 0.125])
        assert back.orientation.w == 0.8 and back.orientation.y == 0.6

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="65 bytes"):
            decode_message(bytes([MSG_POSE]) + bytes(10))


class TestLocalMapMessage:
    def test_single_fragment_for_policy_patch(self):
        frags = encode_local_map(7, np.zeros((17, 11)), 0.1)
        assert len(frags) == 1
        msg = decode_message(frags[0])
        assert isinstance(msg, LocalMapFragment)
        assert msg.fragment_count == 1 and msg.fragment_index == 0
        assert (msg.rows, msg.cols) == (17, 11)
        assert msg.cells.size == 187

    def test_fragmentation_split(self):
        frags = encode_local_map(1, np.zeros((20, 20)), 0.05)
        assert len(frags) == 2
        sizes = [decode_message(f).cells.size for f in frags]
        assert sizes == [MAX_FRAGMENT_CELLS, 400 - MAX_FRAGMENT_CELLS]

    def test_every_fragment_under_mtu(self):
        frags = encode_local_map(1, np.zeros((40, 40)), 0.05)
        assert all(len(f) <= MAX_DATAGRAM for f in frags)
        assert frags[0][0] == MSG_LOCAL_MAP

    def test_reassembly_round_trip(self):
        rng = np.random.default_rng(3)
        h = rng.normal(0, 0.4, (23, 19))
        frags = [decode_message(d) for d in encode_local_map(5, h, 0.05)]
        back, res = reassemble_local_map(frags)
        assert res == pytest.approx(0.05, abs=1e-7)
        assert np.array_equal(back, h.astype(np.float32).astype(float))

    def test_reassembly_order_independent(self):
        h = np.arange(400.0).reshape(20, 20)
        frags = [decode_message(d) for d in encode_local_map(5, h, 0.05)]
        back, _ = reassemble_local_map(list(reversed(frags)))
        assert np.array_equal(back, h)

    def test_missing_fragment(self):
        frags = [decode_message(d)
                 for d in encode_local_map(5, np.zeros((20, 20)), 0.05)]
        with pytest.raises(ValueError, match="missing fragments"):
            reassemble_local_map(frags[:1])

    def test_no_fragments(self):
        with pytest.raises(ValueError, match="no fragments"):
            reassemble_local_map([])

    def test_duplicate_indices_rejected(self):
        frags = [decode_message(d)
                 for d in encode_local_map(5, np.zeros((20, 20)), 0.05)]
        with pytest.raises(ValueError, match="contiguous|missing"):
            reassemble_local_map([frags[0], frags[0]])

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            encode_local_map(0, np.zeros(10), 0.1)


class TestRewardMessage:
    def test_round_trip(self):
        vals = [1.5, -0.25, 0.0, 3.0]
        msg = decode_message(encode_reward(44, vals))
        assert isinstance(msg, RewardMessage)
        assert msg.timestamp_ns == 44
        assert np.array_equal(msg.values, vals)

    def test_datagram_budget(self):
        encode_reward(0, np.zeros(347))  # 11 + 4*347 = 1399, fits
        with pytest.raises(ValueError, match="too many"):
            encode_reward(0, np.zeros(348))


class TestDecodeErrors:
    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            decode_message(b"")

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown message type 99"):
            decode_message(bytes([99]) + bytes(20))

    @pytest.mark.parametrize("keep", [1, 5, 19, 20, 22])
    def test_truncated_local_map(self, keep):
        data = encode_local_map(1, np.zeros((20, 20)), 0.05)[1]
        with pytest.raises(ValueError):
            decode_message(data[:keep])

    @pytest.mark.parametrize("keep", [1, 10, 12, 26])
    def test_truncated_reward(self, keep):
        data = encode_reward(44, [1.5, -0.25, 0.0, 3.0])  # 11 + 16 bytes
        with pytest.raises(ValueError):
            decode_message(data[:keep])

    def test_reward_trailing_bytes(self):
        with pytest.raises(ValueError, match="must hold 4 values"):
            decode_message(encode_reward(44, [1.0, 2.0, 3.0, 4.0]) + bytes(4))

    def test_fragment_cell_count_checked(self):
        first, last = encode_local_map(1, np.zeros((20, 20)), 0.05)
        with pytest.raises(ValueError, match="must hold 320 cells"):
            decode_message(first[:-4])
        with pytest.raises(ValueError, match="must hold 80 cells"):
            decode_message(last + bytes(4))

    def test_fragment_index_checked(self):
        data = bytearray(encode_local_map(1, np.zeros((20, 20)), 0.05)[1])
        data[9:11] = (2).to_bytes(2, "little")  # fragment 2 of 2
        with pytest.raises(ValueError, match="fragment 2 of 2"):
            decode_message(bytes(data))
        data[9:13] = (1).to_bytes(2, "little") + (3).to_bytes(2, "little")  # 1 of 3
        with pytest.raises(ValueError, match="fragment 1 of 3"):
            decode_message(bytes(data))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=80),
        st.tuples(st.sampled_from([MSG_POSE, MSG_LOCAL_MAP, MSG_REWARD]),
                  st.binary(max_size=1400)).map(lambda t: bytes([t[0]]) + t[1]),
        st.tuples(st.sampled_from([
            encode_pose(make_pose()),
            *encode_local_map(3, np.ones((20, 20)), 0.05),
            encode_reward(4, [1.0, 2.0, 3.0]),
        ]), st.integers(0, 1400), st.binary(max_size=8)).map(
            lambda t: t[0][:t[1]] + t[2]),
    ))
    def test_random_bytes_raise_only_value_error(self, data):
        try:
            decode_message(data)
        except ValueError:
            pass


class TestEndpoint:
    def test_parse(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_missing_port(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint("localhost")

    def test_bad_port(self):
        with pytest.raises(ValueError):
            parse_endpoint("localhost:abc")


class TestStreaming:
    def test_loopback_delivery(self):
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", 0))
        rx.settimeout(2.0)
        port = rx.getsockname()[1]
        messages = [encode_pose(make_pose()), encode_reward(1, [0.5])]
        sent, dropped = stream_telemetry(f"127.0.0.1:{port}", messages)
        assert (sent, dropped) == (2, 0)
        got = [rx.recv(2048) for _ in range(2)]
        rx.close()
        assert got == messages

    def test_drop_counted_not_raised(self):
        with UdpStreamer("127.0.0.1:9") as s:
            ok = s.send(bytes(70_000))  # over the UDP datagram limit
            assert not ok
            assert (s.sent, s.dropped) == (0, 1)
