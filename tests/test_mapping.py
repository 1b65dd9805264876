"""Elevation map tests: integration, extraction, edits, noise injection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraforge.geometry import Pose, Quaternion, quat_from_yaw, vec3
from terraforge.mapping import (
    ElevationMap,
    LocalMap,
    LocalMapSpec,
    VirtualEdit,
    edit_heightfield,
    inject_map_noise,
)
from terraforge.sensors import LidarScan, lidar_scan
from terraforge.terrain import TerrainSpec, TerrainType, generate, sample_height

IDENT = Quaternion(1, 0, 0, 0)


def pose_at(x, y, z, ts=0, yaw=0.0):
    return Pose(vec3(x, y, z), quat_from_yaw(yaw) if yaw else IDENT, ts)


def scan_flat_field(emap_center=(4.0, 0.0), z=0.5):
    hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
    pose = pose_at(emap_center[0], emap_center[1], z)
    return hf, pose, lidar_scan(hf, pose)


def dense_scan(hf, pose, reach=2.0, step=0.03):
    """Synthetic gap-free scan: surface heights on a dense grid around the
    sensor, expressed in the sensor frame (identity orientation)."""
    xs = np.arange(pose.position[0] - reach, pose.position[0] + reach, step)
    ys = np.arange(pose.position[1] - reach, pose.position[1] + reach, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gz = np.array([[sample_height(hf, x, y) for y in ys] for x in xs])
    world = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return LidarScan(pose.timestamp_ns, world - pose.position)


class TestIntegrateScan:
    def test_flat_scan_cells_near_zero(self):
        _, pose, scan = scan_flat_field()
        emap = ElevationMap(center=(4.0, 0.0))
        touched = emap.integrate_scan(scan, pose)
        assert touched > 100
        st = emap.snapshot()
        assert np.all(np.abs(st.heights[st.valid]) < 0.011)

    def test_platform_step_location(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9))
        pose = pose_at(3.5, 0.0, 1.2)
        scan = lidar_scan(hf, pose)
        emap = ElevationMap(center=(4.0, 0.0))
        emap.integrate_scan(scan, pose)
        st = emap.snapshot()
        # walk the mapped centerline; the 0 -> 0.55 transition must sit
        # within one cell of the true edge at x = 3.975
        iy = round((0.0 - st.origin[1]) / st.resolution)
        xs, hs = [], []
        for ix in range(emap.cells):
            if st.valid[ix, iy]:
                xs.append(st.origin[0] + ix * st.resolution)
                hs.append(st.heights[ix, iy])
        xs, hs = np.array(xs), np.array(hs)
        lows = xs[(hs < 0.1) & (xs > 3.0)]
        highs = xs[(hs > 0.45) & (xs < 5.0)]
        assert lows.max() < 3.975 + 0.075
        assert highs.min() > 3.975 - 0.075

    def test_empty_scan_no_change(self):
        emap = ElevationMap(center=(0.0, 0.0))
        before = emap.snapshot()
        touched = emap.integrate_scan(LidarScan(0, np.zeros((0, 3))), pose_at(0, 0, 0.5))
        assert touched == 0
        after = emap.snapshot()
        assert np.array_equal(before.valid, after.valid)

    def test_desync_rejected(self):
        emap = ElevationMap()
        scan = LidarScan(0, np.array([[1.0, 0.0, -0.5]]))
        with pytest.raises(ValueError, match="pose-scan desync"):
            emap.integrate_scan(scan, pose_at(0, 0, 0.5, ts=200_000_000))

    def test_order_independent_within_scan(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.uniform(-2, 2, 500), rng.uniform(-2, 2, 500),
            np.full(500, -0.5),
        ])
        a, b = ElevationMap(), ElevationMap()
        a.integrate_scan(LidarScan(0, pts), pose_at(0, 0, 0.5))
        b.integrate_scan(LidarScan(0, pts[::-1].copy()), pose_at(0, 0, 0.5))
        sa, sb = a.snapshot(), b.snapshot()
        assert np.array_equal(sa.valid, sb.valid)
        assert np.allclose(sa.heights[sa.valid], sb.heights[sb.valid], atol=1e-12)

    def test_repeated_scans_shrink_variance(self):
        _, pose, scan = scan_flat_field()
        emap = ElevationMap(center=(4.0, 0.0))
        emap.integrate_scan(scan, pose)
        v1 = emap.snapshot()
        emap.integrate_scan(scan, pose)
        v2 = emap.snapshot()
        m = v1.valid
        assert np.all(v2.variance[m] < v1.variance[m])
        assert np.all(np.abs(v2.heights[m]) < 0.011)

    def test_out_of_band_heights_dropped(self):
        emap = ElevationMap()
        pts = np.array([[1.0, 0.0, -6.0], [2.0, 0.0, -0.5]])
        touched = emap.integrate_scan(LidarScan(0, pts), pose_at(0, 0, 0.5))
        assert touched == 1


class TestSnapshotConsistency:
    def test_reader_sees_old_state_during_write(self):
        _, pose, scan = scan_flat_field()
        emap = ElevationMap(center=(4.0, 0.0))
        before = emap.snapshot()
        emap.integrate_scan(scan, pose)
        # the pre-write snapshot is untouched by the write
        assert not before.valid.any()
        assert emap.snapshot().valid.any()


class TestRecenter:
    def test_whole_cell_shift_preserves_data(self):
        emap = ElevationMap(size=2.0, resolution=0.1, center=(0.0, 0.0))
        before_origin = emap.origin
        emap.integrate_scan(
            LidarScan(0, np.array([[0.3, 0.2, -0.4]])), pose_at(0, 0, 0.4))
        h_before = emap.height_at(0.3, 0.2)
        assert h_before is not None
        emap.recenter((0.5, 0.0))
        # origin moved by an exact cell multiple; data rides along
        assert emap.height_at(0.3, 0.2) == h_before
        steps = (emap.origin - before_origin) / 0.1
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_exposed_cells_unknown(self):
        emap = ElevationMap(size=2.0, resolution=0.1)
        emap.integrate_scan(
            LidarScan(0, np.array([[-0.9, 0.0, -0.4]])), pose_at(0, 0, 0.4))
        emap.recenter((1.0, 0.0))
        # the cell that held data slid out of the window
        assert emap.height_at(-0.9, 0.0) is None

    def test_noop_when_within_cell(self):
        emap = ElevationMap(size=2.0, resolution=0.1)
        assert emap.recenter((0.01, -0.03)) == (0, 0)

    def test_shift_past_window_clears_everything(self):
        emap = ElevationMap(size=2.0, resolution=0.1)
        emap.apply_edit(VirtualEdit((-1.0, -1.0, 1.0, 1.0), -1.0))
        assert emap.recenter((-5.0, 3.0)) == (-50, 30)
        snap = emap.snapshot()
        assert not snap.valid.any() and not snap.pinned.any()
        assert np.all(snap.heights == 0.0) and np.all(np.isinf(snap.variance))


class TestInPlaceWrites:
    def test_writes_allocate_no_grid_copy(self):
        _, pose, scan = scan_flat_field()
        emap = ElevationMap(center=(4.0, 0.0))
        edit = VirtualEdit((3.0, -0.5, 4.0, 0.5), -1.0)
        emap.integrate_scan(scan, pose)  # warm up lazy numpy state
        grid_bytes = emap.cells * emap.cells * 8
        tracemalloc.start()
        try:
            emap.integrate_scan(scan, pose)
            emap.apply_edit(edit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes

    @pytest.mark.parametrize("step", [(1, 0), (1, -1)])
    def test_recenter_allocates_less_than_a_row(self, step):
        _, pose, scan = scan_flat_field()
        emap = ElevationMap(center=(4.0, 0.0))
        emap.integrate_scan(scan, pose)
        res = emap.resolution
        emap.recenter((4.0 + step[0] * res, step[1] * res))  # warm up
        tracemalloc.start()
        try:
            shift = emap.recenter((4.0 + 2 * step[0] * res, 2 * step[1] * res))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shift == step
        assert peak < emap.cells * 8


def shifted_oracle(snap, kx, ky):
    """The shift as first written: copy the kept block, refill, copy back."""
    n = snap.heights.shape[0]
    mx, my = max(n - abs(kx), 0), max(n - abs(ky), 0)
    src = (slice(max(kx, 0), max(kx, 0) + mx), slice(max(ky, 0), max(ky, 0) + my))
    dst = (slice(max(-kx, 0), max(-kx, 0) + mx), slice(max(-ky, 0), max(-ky, 0) + my))
    grids = []
    for grid, fill in ((snap.heights, 0.0), (snap.variance, np.inf),
                       (snap.valid, False), (snap.pinned, False)):
        kept = grid[src].copy()
        grid = np.full_like(grid, fill)
        grid[dst] = kept
        grids.append(grid)
    return grids


# whole-cell shifts: none, one cell, a few, to the window edge and past it
CELL_SHIFTS = st.sampled_from([0, 0, 1, -1, 2, -3, 19, -19, 20, -20, 27, -27])
MAP_OPS = st.one_of(
    st.tuples(st.just("scan"), st.integers(0, 2**32 - 1), st.integers(1, 300)),
    st.tuples(st.just("edit"), st.floats(-1.0, 0.8), st.floats(-1.0, 0.8),
              st.floats(0.15, 1.5), st.floats(0.15, 1.5), st.floats(-2.0, 2.0)),
    st.tuples(st.just("recenter"), CELL_SHIFTS, CELL_SHIFTS,
              st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
)


class TestRecenterMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(MAP_OPS, min_size=1, max_size=12))
    def test_shift_matches_copy_fill_copy_back(self, ops):
        emap = ElevationMap(size=2.0, resolution=0.1)
        res, extent = emap.resolution, (emap.cells - 1) * emap.resolution
        for op in ops:
            center = emap.origin + extent / 2
            if op[0] == "scan":
                # points anywhere over the window, so shifted strips hold data
                rng = np.random.default_rng(op[1])
                pts = np.column_stack([rng.uniform(-1.1, 1.1, (op[2], 2)),
                                       rng.uniform(-0.6, 0.2, op[2])])
                emap.integrate_scan(LidarScan(0, pts),
                                    pose_at(center[0], center[1], 0.4))
            elif op[0] == "edit":
                x0, y0 = center[0] + op[1], center[1] + op[2]
                emap.apply_edit(VirtualEdit((x0, y0, x0 + op[3], y0 + op[4]), op[5]))
            else:
                _, kx, ky, fx, fy = op
                before = emap.snapshot()
                shift = emap.recenter(center + np.array([kx + fx, ky + fy]) * res)
                assert shift == (kx, ky)
                after = emap.snapshot()
                expected = shifted_oracle(before, kx, ky)
                got = (after.heights, after.variance, after.valid, after.pinned)
                for want, have in zip(expected, got):
                    assert have.dtype == want.dtype
                    assert have.tobytes() == want.tobytes()
                assert np.array_equal(after.origin,
                                      before.origin + np.array([kx, ky]) * res)
            snap = emap.snapshot()
            assert np.array_equal(snap.valid, np.isfinite(snap.variance))


class TestExtractLocal:
    def test_dimensions_and_lead(self):
        spec = LocalMapSpec()
        assert (spec.samples_x, spec.samples_y) == (17, 11)
        emap = ElevationMap()
        local = emap.extract_local(pose_at(0, 0, 0.4), spec)
        assert local.heights.shape == (17, 11)
        assert local.xs[0] == pytest.approx(-1.6 / 3)
        assert local.xs[-1] == pytest.approx(2 * 1.6 / 3)
        assert local.ys[0] == pytest.approx(-0.5)

    @given(st.integers(1, 30), st.integers(1, 30), st.sampled_from([0.05, 0.1, 0.25]))
    @settings(max_examples=50, deadline=None)
    def test_sample_grid_bit_equal_built_once_read_only(self, nx, ny, res):
        spec = LocalMapSpec(nx * res, ny * res, res)
        xs = -spec.length_x / 3 + spec.resolution * np.arange(spec.samples_x)
        ys = -spec.length_y / 2 + spec.resolution * np.arange(spec.samples_y)
        grid = spec.sample_grid
        for got, want in zip(grid, (xs, ys, *np.meshgrid(xs, ys, indexing="ij"))):
            assert np.array_equal(got, want) and not got.flags.writeable
        assert spec.sample_grid is grid
        local = ElevationMap().extract_local(pose_at(0, 0, 0.4), spec)
        assert local.xs is grid[0] and local.ys is grid[1]

    def test_flat_world_reads_minus_body_height(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        pose = pose_at(4.0, 0.0, 0.5)
        emap = ElevationMap(center=(4.0, 0.0))
        emap.integrate_scan(dense_scan(hf, pose), pose)
        local = emap.extract_local(pose_at(4.0, 0.0, 0.4))
        assert local.fill_ratio == 0.0
        assert np.allclose(local.heights, -0.4, atol=0.011)

    def test_platform_ahead_visible(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9))
        pose_scan = pose_at(3.5, 0.0, 1.2)
        emap = ElevationMap(center=(4.0, 0.0))
        emap.integrate_scan(dense_scan(hf, pose_scan), pose_scan)
        # body just before the step at x = 3.975, platform starts 0.375 ahead
        local = emap.extract_local(pose_at(3.6, 0.0, 0.4))
        ahead = local.heights[local.xs > 0.5, :]
        behind = local.heights[local.xs < 0.2, :]
        assert np.median(ahead) == pytest.approx(0.15, abs=0.03)
        assert np.median(behind) == pytest.approx(-0.4, abs=0.03)

    def test_unknown_map_fills_zero(self):
        emap = ElevationMap()
        local = emap.extract_local(pose_at(0, 0, 0.4))
        assert local.fill_ratio == 1.0
        assert np.all(local.heights == 0.0)

    def test_yaw_alignment(self):
        # trench north of the body is ahead when the body faces north
        emap = ElevationMap()
        emap.apply_edit(VirtualEdit((-0.5, 0.4, 0.5, 1.0), -1.0))
        local = emap.extract_local(pose_at(0, 0, 0.4, yaw=math.pi / 2))
        ahead = local.heights[local.xs > 0.45, :]
        assert np.any(np.abs(ahead - (-1.4)) < 1e-9)

    def test_translation_consistency(self):
        # same scene expressed in two world origins yields the same e_t
        offset = np.array([3.0, -2.0])
        pts = np.column_stack([
            np.linspace(-1, 1, 300), np.zeros(300), np.linspace(-0.3, -0.5, 300)])
        a = ElevationMap(center=(0.0, 0.0))
        a.integrate_scan(LidarScan(0, pts), pose_at(0, 0, 0.0))
        b = ElevationMap(center=(offset[0], offset[1]))
        b.integrate_scan(LidarScan(0, pts), pose_at(offset[0], offset[1], 0.0))
        la = a.extract_local(pose_at(0, 0, 0.4))
        lb = b.extract_local(pose_at(offset[0], offset[1], 0.4))
        assert la.fill_ratio == lb.fill_ratio
        assert np.allclose(la.heights, lb.heights, atol=1e-9)


class TestApplyEdit:
    def test_override_and_read_back(self):
        emap = ElevationMap()
        count = emap.apply_edit(VirtualEdit((0.0, 0.0, 1.0, 0.5), -1.0))
        assert count == (1.0 / 0.05) * (0.5 / 0.05)  # 200 cells
        assert emap.height_at(0.5, 0.25) == -1.0

    def test_pinned_cells_survive_scans(self):
        emap = ElevationMap(center=(0.0, 0.0))
        emap.apply_edit(VirtualEdit((-0.5, -0.25, 0.5, 0.25), -1.0))
        flat_pts = np.column_stack([
            np.random.default_rng(1).uniform(-2, 2, (1000, 2)),
            np.full((1000, 1), -0.4)])
        for i in range(100):
            emap.integrate_scan(LidarScan(i, flat_pts), pose_at(0, 0, 0.4, ts=i))
        assert emap.height_at(0.0, 0.0) == -1.0

    def test_trench_in_local_map(self):
        emap = ElevationMap()
        emap.apply_edit(VirtualEdit((0.3, -0.2, 0.8, 0.2), -1.0))
        local = emap.extract_local(pose_at(0, 0, 0.4))
        in_trench = local.heights[(local.xs >= 0.35) & (local.xs <= 0.75), 5]
        assert np.allclose(in_trench, -1.4, atol=1e-9)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError, match="area"):
            VirtualEdit((0.0, 0.0, 0.0, 1.0), -1.0)

    def test_disjoint_region_rejected(self):
        emap = ElevationMap(size=2.0, resolution=0.1)
        with pytest.raises(ValueError, match="edit outside map"):
            emap.apply_edit(VirtualEdit((50.0, 50.0, 51.0, 51.0), -1.0))

    def test_height_bound(self):
        with pytest.raises(ValueError, match="height"):
            VirtualEdit((0, 0, 1, 1), -7.0)


class TestEditHeightfield:
    def test_cell_count_exact(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        edit = VirtualEdit((2.0, -0.25, 3.0, 0.25), -1.0)
        edited, count = edit_heightfield(hf, edit)
        assert count == 200  # (1/0.05) * (0.5/0.05)
        assert sample_height(edited, 2.5, 0.0) == -1.0
        assert hf.heights.max() == 0.0  # original untouched

    def test_idempotent(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        edit = VirtualEdit((2.0, -0.25, 3.0, 0.25), -1.0)
        once, _ = edit_heightfield(hf, edit)
        twice, _ = edit_heightfield(once, edit)
        assert np.array_equal(once.heights, twice.heights)

    def test_count_alignment_independent(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        for x0 in (2.0, 2.013, 2.026, 2.04):
            edit = VirtualEdit((x0, -0.25, x0 + 1.0, 0.25), -1.0)
            _, count = edit_heightfield(hf, edit)
            assert count == 200


class TestInjectMapNoise:
    def _local(self):
        emap = ElevationMap()
        return emap.extract_local(pose_at(0, 0, 0.4))

    def test_zero_ratio_unchanged(self):
        local = self._local()
        out = inject_map_noise(local, 0.0, seed=1)
        assert out is local

    def test_exact_cell_count(self):
        local = self._local()  # 187 cells
        out = inject_map_noise(local, 0.1, seed=2)
        assert np.count_nonzero(out.heights != local.heights) == 18  # floor(18.7)

    def test_perturbations_in_range(self):
        local = self._local()
        for seed in range(10):
            out = inject_map_noise(local, 0.1, (-1.0, 2.0), seed=seed)
            delta = (out.heights - local.heights).ravel()
            moved = delta[delta != 0]
            assert np.all(moved >= -1.0) and np.all(moved <= 2.0)

    def test_deterministic(self):
        local = self._local()
        a = inject_map_noise(local, 0.05, seed=9)
        b = inject_map_noise(local, 0.05, seed=9)
        assert np.array_equal(a.heights, b.heights)

    def test_ratio_bound(self):
        with pytest.raises(ValueError, match="ratio"):
            inject_map_noise(self._local(), 0.5)


def test_local_map_to_points_shape():
    emap = ElevationMap()
    local = emap.extract_local(pose_at(0, 0, 0.4))
    pts = local.to_points()
    assert pts.shape == (187, 3)
    # first point is the rear-left corner in body coordinates
    assert pts[0, 0] == pytest.approx(-1.6 / 3)
    assert pts[0, 1] == pytest.approx(-0.5)


@given(st.integers(1, 30), st.integers(1, 30), st.sampled_from([0.05, 0.1, 0.25]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_local_map_to_points_bit_equal_meshgrid(nx, ny, res, seed):
    spec = LocalMapSpec(nx * res, ny * res, res)
    xs, ys, _, _ = spec.sample_grid
    heights = np.random.default_rng(seed).normal(size=(spec.samples_x, spec.samples_y))
    heights[0, -1] = np.nan  # values are copied, not computed on
    local = LocalMap(heights=heights, xs=xs, ys=ys, resolution=res,
                     fill_ratio=0.0, timestamp_ns=0)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    want = np.column_stack([gx.ravel(), gy.ravel(), heights.ravel()])
    got = local.to_points()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
