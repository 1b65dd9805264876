"""Binary and JSONL format round trips, header layouts, error paths."""

import numpy as np
import pytest

from terraforge.fileformats import (
    FORMAT_VERSION,
    HFLD_MAGIC,
    LOCAL_BLOB_HEADER_SIZE,
    decode_local_map,
    encode_local_map,
    heightfield_to_csv,
    imu_record,
    pose_from_record,
    pose_record,
    read_heightfield,
    read_jsonl,
    read_local_maps,
    write_heightfield,
    write_jsonl,
)
from terraforge.geometry import Pose, Quaternion
from terraforge.sensors import ImuSample
from terraforge.terrain import Heightfield, TerrainSpec, TerrainType, generate


@pytest.fixture
def small_field():
    rng = np.random.default_rng(0)
    return Heightfield(width=7, height=5, resolution=0.025,
                       origin=np.array([1.5, -0.5]),
                       heights=rng.uniform(-0.2, 0.6, (7, 5)))


class TestHeightfieldFormat:
    def test_round_trip(self, small_field, tmp_path):
        path = tmp_path / "field.hfld"
        write_heightfield(small_field, path)
        back = read_heightfield(path)
        assert back.width == 7 and back.height == 5
        assert back.resolution == 0.025
        assert np.array_equal(back.origin, small_field.origin)
        # cells stored as f32
        assert np.allclose(back.heights, small_field.heights, atol=1e-6)
        assert np.array_equal(back.heights,
                              small_field.heights.astype(np.float32))

    def test_file_size(self, small_field, tmp_path):
        path = tmp_path / "field.hfld"
        write_heightfield(small_field, path)
        assert path.stat().st_size == 38 + 7 * 5 * 4

    def test_generated_tile_round_trip(self, tmp_path):
        hf = generate(TerrainSpec(TerrainType.STAIRS, 5))
        path = tmp_path / "tile.hfld"
        write_heightfield(hf, path)
        back = read_heightfield(path)
        assert back.heights.shape == hf.heights.shape
        assert np.allclose(back.heights, hf.heights, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.hfld"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ValueError, match="not a heightfield"):
            read_heightfield(path)

    def test_bad_version(self, small_field, tmp_path):
        path = tmp_path / "field.hfld"
        write_heightfield(small_field, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_heightfield(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "stub.hfld"
        path.write_bytes(HFLD_MAGIC + b"\x01\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_heightfield(path)

    def test_csv_export(self, small_field, tmp_path):
        path = tmp_path / "field.csv"
        heightfield_to_csv(small_field, path)
        back = np.loadtxt(path, delimiter=",")
        assert back.shape == (7, 5)
        assert np.allclose(back, small_field.heights, atol=1e-6)


class TestLocalMapBlob:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        h = rng.normal(0, 0.3, (17, 11))
        blob = encode_local_map(h, 0.1)
        back, res = decode_local_map(blob)
        assert res == pytest.approx(0.1, abs=1e-7)
        assert back.shape == (17, 11)
        assert np.allclose(back, h, atol=1e-6)

    def test_blob_size(self):
        blob = encode_local_map(np.zeros((17, 11)), 0.1)
        assert LOCAL_BLOB_HEADER_SIZE == 16
        assert len(blob) == 16 + 17 * 11 * 4

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            encode_local_map(np.zeros(187), 0.1)

    @pytest.mark.parametrize("size, match", [(0, "header"), (15, "header"),
                                             (16, "17x11 cells"), (16 + 17 * 11 * 4 - 1, "17x11 cells")])
    def test_truncated_blob_rejected(self, size, match):
        blob = encode_local_map(np.zeros((17, 11)), 0.1)
        with pytest.raises(ValueError, match=f"shorter than its {match}"):
            decode_local_map(blob[:size])

    def test_read_back_to_back_blobs(self, tmp_path):
        maps = [np.full((17, 11), float(i)) for i in range(3)] + [np.ones((2, 3))]
        path = tmp_path / "localmaps.bin"
        path.write_bytes(b"".join(encode_local_map(m, 0.1) for m in maps))
        back = read_local_maps(path)
        assert [h.tolist() for h, _ in back] == [m.tolist() for m in maps]
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="2x3 cells"):
            read_local_maps(path)


class TestJsonlLogs:
    def test_pose_round_trip(self):
        pose = Pose(np.array([1.25, -0.5, 0.375]),
                    Quaternion(0.8, 0.0, 0.0, 0.6), 42)
        rec = pose_record(pose)
        back = pose_from_record(rec)
        assert back.timestamp_ns == 42
        assert np.array_equal(back.position, pose.position)
        assert back.orientation.w == pytest.approx(0.8, abs=1e-12)

    def test_read_normalizes_quaternion(self):
        rec = {"timestamp_ns": 1, "px": 0.0, "py": 0.0, "pz": 0.0,
               "qw": 2.0, "qx": 0.0, "qy": 0.0, "qz": 0.0}
        assert pose_from_record(rec).orientation.w == 1.0

    @pytest.mark.parametrize("rec, match", [
        ({"timestamp_ns": 1}, "no 'px'"),
        ({"timestamp_ns": 1, "px": 0.0, "py": 0.0, "pz": 0.0, "qw": 1.0,
          "qx": 0.0, "qy": 0.0}, "no 'qz'"),
        ({"timestamp_ns": None, "px": 0.0, "py": 0.0, "pz": 0.0, "qw": 1.0,
          "qx": 0.0, "qy": 0.0, "qz": 0.0}, "'timestamp_ns' is not a finite number"),
        ({"timestamp_ns": 1, "px": float("inf"), "py": 0.0, "pz": 0.0, "qw": 1.0,
          "qx": 0.0, "qy": 0.0, "qz": 0.0}, "'px' is not a finite number"),
        ([0.0] * 8, "not an object"),
    ])
    def test_damaged_pose_record_names_the_field(self, rec, match):
        with pytest.raises(ValueError, match=match):
            pose_from_record(rec)

    def test_imu_record_keys(self):
        s = ImuSample(timestamp_ns=9,
                      angular_velocity=np.array([0.1, 0.2, 0.3]),
                      linear_acceleration=np.array([0.0, 0.0, 9.81]))
        rec = imu_record(s)
        assert rec == {"timestamp_ns": 9, "wx": 0.1, "wy": 0.2, "wz": 0.3,
                       "ax": 0.0, "ay": 0.0, "az": 9.81}

    def test_jsonl_round_trip(self, tmp_path):
        recs = [{"a": 1, "b": 0.5}, {"a": 2, "b": -1.25}]
        path = tmp_path / "log.jsonl"
        write_jsonl(recs, path)
        assert read_jsonl(path) == recs

    def test_identical_runs_byte_identical(self, tmp_path):
        recs = [pose_record(Pose(np.array([0.1, 0.2, 0.3]),
                                 Quaternion(1.0, 0, 0, 0), k))
                for k in range(20)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(recs, p1)
        write_jsonl(recs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]
