"""Terrain generation and parameter table tests."""

import math

import numpy as np
import pytest

from terraforge.terrain import (
    MAX_GRID_SIDE,
    Heightfield,
    Robot,
    TerrainSpec,
    TerrainType,
    clamped_height,
    generate,
    sample_height,
    sample_height_vec,
    terrain_parameter,
)

# independently transcribed (base, per-level step) oracle, meters
CURRICULUM = {
    (Robot.LITE3, TerrainType.SLOPE): (0.0, 0.05),
    (Robot.LITE3, TerrainType.DISCRETE_STONES): (0.05, 0.025),
    (Robot.LITE3, TerrainType.STAIRS): (0.05, 0.013),
    (Robot.LITE3, TerrainType.GAP): (0.2, 0.035),
    (Robot.LITE3, TerrainType.HIGH_PLATFORM): (0.1, 0.05),
    (Robot.X30, TerrainType.SLOPE): (0.0, 0.05),
    (Robot.X30, TerrainType.DISCRETE_STONES): (0.05, 0.035),
    (Robot.X30, TerrainType.STAIRS): (0.05, 0.018),
    (Robot.X30, TerrainType.GAP): (0.2, 0.06),
    (Robot.X30, TerrainType.HIGH_PLATFORM): (0.1, 0.07),
}


class TestTerrainParameter:
    def test_all_100_cases_exact(self):
        for (robot, ttype), (base, step) in CURRICULUM.items():
            for level in range(10):
                spec = TerrainSpec(ttype, level, robot)
                assert terrain_parameter(spec) == base + step * level

    def test_named_values(self):
        assert terrain_parameter(
            TerrainSpec(TerrainType.HIGH_PLATFORM, 9, Robot.LITE3)
        ) == pytest.approx(0.55, abs=1e-12)
        assert terrain_parameter(
            TerrainSpec(TerrainType.GAP, 0, Robot.LITE3)
        ) == pytest.approx(0.20, abs=1e-12)
        assert terrain_parameter(
            TerrainSpec(TerrainType.STAIRS, 9, Robot.X30)
        ) == pytest.approx(0.212, abs=1e-12)

    def test_level_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            TerrainSpec(TerrainType.SLOPE, 10)
        with pytest.raises(ValueError, match="outside"):
            TerrainSpec(TerrainType.SLOPE, -1)


class TestGenerate:
    def test_platform_height_l9(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9, Robot.LITE3))
        assert abs((hf.heights.max() - hf.heights.min()) - 0.55) <= 0.05

    def test_level0_slope_flat(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        assert np.all(hf.heights == 0.0)

    def test_gap_span_l9(self):
        hf = generate(TerrainSpec(TerrainType.GAP, 9, Robot.LITE3))
        # centerline profile; gap cells sit at the trench depth
        row = hf.heights[:, hf.height // 2]
        span = np.count_nonzero(row < -0.5) * hf.resolution
        assert abs(span - 0.515) <= 0.05

    def test_stair_rise_matches_parameter(self):
        spec = TerrainSpec(TerrainType.STAIRS, 6, Robot.LITE3)
        hf = generate(spec)
        row = hf.heights[:, 0]
        rises = np.diff(row)
        steps = rises[np.abs(rises) > 1e-9]
        assert steps.size > 0
        assert np.allclose(np.abs(steps), terrain_parameter(spec), atol=1e-9)

    def test_deterministic(self):
        spec = TerrainSpec(TerrainType.DISCRETE_STONES, 5, seed=42)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.heights, b.heights)

    def test_stone_seeds_differ(self):
        a = generate(TerrainSpec(TerrainType.DISCRETE_STONES, 5, seed=1))
        b = generate(TerrainSpec(TerrainType.DISCRETE_STONES, 5, seed=2))
        assert not np.array_equal(a.heights, b.heights)

    def test_all_100_cases_within_height_bound(self):
        for (robot, ttype) in CURRICULUM:
            for level in range(10):
                hf = generate(TerrainSpec(ttype, level, robot))
                assert hf.heights.min() >= -2.0
                assert hf.heights.max() <= 2.0

    def test_feature_exceeds_tile(self):
        with pytest.raises(ValueError, match="feature exceeds tile"):
            generate(TerrainSpec(TerrainType.GAP, 9, Robot.X30, tile_size=2.0))

    def test_stairs_that_do_not_fit_are_refused_with_the_spec(self):
        with pytest.raises(ValueError, match="feature exceeds tile"):
            TerrainSpec(TerrainType.STAIRS, 0, tile_size=2.5)
        assert generate(TerrainSpec(TerrainType.STAIRS, 0, tile_size=3.0)).heights.max() > 0

    def test_platform_occupies_far_half(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 4))
        assert np.all(hf.heights[: hf.width // 2 - 1, :] == 0.0)
        assert np.all(hf.heights[-(hf.width // 4):, :] > 0.0)

    def test_grid_shape(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 3))
        assert (hf.width, hf.height) == (160, 160)
        assert hf.heights.shape == (160, 160)


def reference_sample_height(hf, x, y):
    """Scalar bilinear sampling as first written, before sample_height
    became the one-row view of sample_height_vec."""
    gx = (x - hf.origin[0]) / hf.resolution
    gy = (y - hf.origin[1]) / hf.resolution
    i0 = min(int(gx), hf.width - 2) if hf.width > 1 else 0
    j0 = min(int(gy), hf.height - 2) if hf.height > 1 else 0
    fx, fy = gx - i0, gy - j0
    h = hf.heights
    return float(h[i0, j0] * (1 - fx) * (1 - fy) + h[i0 + 1, j0] * fx * (1 - fy)
                 + h[i0, j0 + 1] * (1 - fx) * fy + h[i0 + 1, j0 + 1] * fx * fy)


class TestSampleHeight:
    def test_flat_everywhere_zero(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        for x, y in [(0.0, 0.0), (3.3, 1.1), (7.9, -3.9)]:
            assert sample_height(hf, x, y) == 0.0

    def test_cell_node_exact(self):
        hf = generate(TerrainSpec(TerrainType.STAIRS, 5))
        i, j = 50, 80
        x = hf.origin[0] + i * hf.resolution
        y = hf.origin[1] + j * hf.resolution
        assert sample_height(hf, x, y) == pytest.approx(hf.heights[i, j], abs=1e-12)

    def test_midpoint_interpolation(self):
        heights = np.zeros((2, 2))
        heights[1, :] = 0.1
        hf = Heightfield(2, 2, 0.05, np.array([0.0, 0.0]), heights)
        assert sample_height(hf, 0.025, 0.0) == pytest.approx(0.05, abs=1e-12)

    def test_out_of_bounds(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 0))
        with pytest.raises(ValueError, match="outside heightfield"):
            sample_height(hf, -0.1, 0.0)
        with pytest.raises(ValueError, match="outside heightfield"):
            sample_height(hf, 0.0, 99.0)

    def test_vectorized_matches_scalar(self):
        hf = generate(TerrainSpec(TerrainType.STAIRS, 7))
        rng = np.random.default_rng(0)
        x_extent, y_extent = (hf.width - 1) * hf.resolution, (hf.height - 1) * hf.resolution
        xs = rng.uniform(0, x_extent, 200)
        ys = rng.uniform(-y_extent / 2, y_extent / 2, 200)
        vals, ok = sample_height_vec(hf, xs, ys)
        assert ok.all()
        for x, y, v in zip(xs, ys, vals):
            assert v == reference_sample_height(hf, x, y) == sample_height(hf, x, y)

    def test_one_cell_wide_field(self):
        hf = Heightfield(1, 3, 0.05, np.array([0.0, 0.0]), np.array([[0.0, 0.1, 0.2]]))
        assert sample_height(hf, 0.0, 0.075) == pytest.approx(0.15, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)])
    def test_one_node_side_matches_reference(self, shape):
        # reference_sample_height needs two nodes per side: a one-node side
        # samples as that node doubled
        heights = np.random.default_rng(2).normal(size=shape)
        hf = Heightfield(*shape, 0.05, np.array([1.0, -2.0]), heights)
        doubled = np.broadcast_to(heights, (max(shape[0], 2), max(shape[1], 2)))
        ref = Heightfield(*doubled.shape, 0.05, hf.origin, doubled.copy())
        rng = np.random.default_rng(3)
        along = rng.uniform(0.0, 0.05 * 6, 50)  # along the long side, on the tile
        across = np.zeros(50)
        gx, gy = (across, along) if shape[0] == 1 else (along, across)
        xs, ys = hf.origin[0] + gx, hf.origin[1] + gy
        vals, ok = sample_height_vec(hf, xs, ys)
        assert ok.all()
        for x, y, v in zip(xs, ys, vals):
            assert v == reference_sample_height(ref, x, y)
        # a step off the one-node side is off the field
        off = (xs + 1e-9, ys) if shape[0] == 1 else (xs, ys + 1e-9)
        vals, ok = sample_height_vec(hf, *off)
        assert not ok.any() and np.isnan(vals).all()

    def test_vectorized_flags_out_of_bounds(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 1))
        vals, ok = sample_height_vec(hf, np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        assert not ok[0] and ok[1]
        assert np.isnan(vals[0])


def test_far_corner_is_the_last_float_on_the_tile():
    # on the tile means (x - origin) / resolution <= width - 1, and so for y
    rng = np.random.default_rng(4)
    for k in range(300):
        shape = rng.integers(1, 400, 2)
        res = float(rng.choice([0.05, 0.1, 0.02, 0.033])) * rng.uniform(0.5, 2.0)
        # every third tile ends near world 0, where floats are dense
        origin = -(shape - 1) * res if k % 3 == 0 else rng.normal(0.0, 10.0, 2)
        hf = Heightfield(*shape, res, origin, np.zeros(shape))
        fc, top = hf.far_corner, shape - 1
        assert np.all((fc - hf.origin) / res <= top)
        assert np.all((np.nextafter(fc, np.inf) - hf.origin) / res > top)
        _, ok = sample_height_vec(hf, [fc[0], np.nextafter(fc[0], np.inf), fc[0]],
                                  [fc[1], fc[1], np.nextafter(fc[1], np.inf)])
        assert ok.tolist() == [True, False, False]


def test_non_finite_heights_rejected():
    bad = np.zeros((4, 4))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Heightfield(4, 4, 0.05, np.array([0.0, 0.0]), bad)


@pytest.mark.parametrize("res, origin, match", [
    (0.0, (0.0, 0.0), "resolution must be finite"),
    (-0.05, (0.0, 0.0), "resolution must be finite"),
    (np.nan, (0.0, 0.0), "resolution must be finite"),
    (np.inf, (0.0, 0.0), "resolution must be finite"),
    (1e-320, (0.0, 0.0), "resolution must be finite"),  # subnormal: 1 / res overflows
    (0.05, (np.inf, 0.0), "origin must be finite"),
    (0.05, (0.0, np.nan), "origin must be finite"),
])
def test_bad_resolution_or_origin_rejected(res, origin, match):
    with pytest.raises(ValueError, match=match):
        Heightfield(4, 4, res, np.array(origin), np.zeros((4, 4)))


@pytest.mark.parametrize("kwargs", [{"resolution": 0.001}, {"tile_size": 1e6},
                                    {"tile_size": math.inf}, {"resolution": 5e-324}])
def test_tile_over_the_grid_bound_rejected(kwargs):
    with pytest.raises(ValueError, match=f"over {MAX_GRID_SIDE} cells per side"):
        TerrainSpec(TerrainType.SLOPE, 0, **kwargs)
    spec = TerrainSpec(TerrainType.SLOPE, 0, tile_size=100.0)  # 2000 cells: the bound
    assert round(spec.tile_size / spec.resolution) == MAX_GRID_SIDE


def _line_bounds_by_loops(h, res):
    """Heightfield.line_bounds from its definition, node by node, with the
    heights held outwards past the tile's edges."""
    w, n = h.shape

    def node(i, j):
        return h[min(max(i, 0), w - 1), min(max(j, 0), n - 1)]

    def cell(i, j):
        return abs(node(i, j) - node(i + 1, j) - node(i, j + 1) + node(i + 1, j + 1))

    twist = np.array([[max(cell(i + di, j + dj) for di in (-1, 0) for dj in (-1, 0))
                       for j in range(n)] for i in range(w)])
    steps = max(max(abs(node(i + 1, j) - node(i, j)), abs(node(j, i + 1) - node(j, i)))
                for i in range(-1, max(w, n)) for j in range(-1, max(w, n) + 1))
    x_lines = [i for i in range(w)
               if any(node(i + 1, j) - 2 * node(i, j) + node(i - 1, j) != 0 for j in range(n))
               or twist[i].max() > 0]
    y_lines = [j for j in range(n)
               if any(node(i, j + 1) - 2 * node(i, j) + node(i, j - 1) != 0 for i in range(w))
               or twist[:, j].max() > 0]
    return math.sqrt(2) * steps / res, twist, x_lines, y_lines


# risers along x over a plane tilted along y, in binary fractions so that
# no second difference rounds off zero: no cell twists, and the surface bends
# across the x lines at the risers and across the y lines at the tile's
# edges, where held outwards it turns flat. One spike twists the cells around
# it and bends every line through them.
@pytest.mark.parametrize("shape", [(11, 6), (1, 4), (4, 1), (1, 1)])
def test_line_bounds_match_brute_force(shape):
    i, j = np.indices(shape)
    steps = 0.5 * (i // 3) + 0.25 * j
    spiked = steps.copy()
    spiked[shape[0] // 2, shape[1] // 2] += 0.375
    lines = []
    for heights in (steps, spiked, np.random.default_rng(1).normal(size=shape)):
        hf = Heightfield(*shape, 0.05, np.array([0.0, 0.0]), heights)
        lip, twist, x_lines, y_lines = _line_bounds_by_loops(heights, 0.05)
        got = hf.line_bounds
        assert got.lip == pytest.approx(lip, rel=1e-12)
        assert np.array_equal(got.twist, twist)
        assert got.lines[0].tolist() == x_lines and got.lines[1].tolist() == y_lines
        assert hf.line_bounds is got  # built once, on first use
        lines.append((x_lines, y_lines))
    if shape == (11, 6):
        assert lines[:2] == [([2, 3, 5, 6, 8, 9], [0, 5]), ([2, 3, 4, 5, 6, 8, 9], [0, 2, 3, 4, 5])]


def test_line_bounds_not_built_by_generate():
    assert "line_bounds" not in vars(generate(TerrainSpec(TerrainType.STAIRS, 5)))


# lip bounds the slope of the surface between any two points, on the tile
# or past its edges, and is reached between two adjacent nodes
@pytest.mark.parametrize("seed", range(1, 9))
def test_lip_bounds_every_slope(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 9, size=2))
    hf = Heightfield(*shape, 0.05, np.array([0.0, 0.0]), rng.normal(size=shape))
    p, q = rng.uniform(-2, np.array(shape) + 1, size=(2, 4000, 2)).transpose(0, 2, 1)
    rise = np.abs(clamped_height(hf, *p) - clamped_height(hf, *q))
    assert np.all(rise <= hf.line_bounds.lip * 0.05 * np.hypot(*(p - q)) * (1 + 1e-12))
    h = np.pad(hf.heights, 1, mode="edge")
    top = max(np.abs(np.diff(h, axis=0)).max(), np.abs(np.diff(h, axis=1)).max())
    assert hf.line_bounds.lip == pytest.approx(math.sqrt(2) * top / 0.05, rel=1e-12)


def test_one_node_tile_rejected():
    # one node per side makes a zero-length slope ramp, 0/0 in every cell
    with pytest.raises(ValueError, match="spans one node"):
        TerrainSpec(TerrainType.SLOPE, 0, tile_size=0.05, resolution=0.05)
    hf = generate(TerrainSpec(TerrainType.SLOPE, 9, tile_size=0.1, resolution=0.05))
    assert hf.heights.shape == (2, 2) and np.all(hf.heights == 0.0)


@pytest.mark.parametrize("size", [0.0, -8.0, float("nan")])
def test_non_positive_tile_size_rejected(size):
    with pytest.raises(ValueError, match="tile_size must be positive"):
        TerrainSpec(TerrainType.SLOPE, 0, tile_size=size)
