"""Terrain generation and parameter table tests."""

import numpy as np
import pytest

from terraforge.terrain import (
    BLOCK_CELLS,
    Heightfield,
    Robot,
    TerrainSpec,
    TerrainType,
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

    def test_platform_occupies_far_half(self):
        hf = generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 4))
        assert np.all(hf.heights[: hf.width // 2 - 1, :] == 0.0)
        assert np.all(hf.heights[-(hf.width // 4):, :] > 0.0)

    def test_grid_shape(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 3))
        assert (hf.width, hf.height) == (160, 160)
        assert hf.heights.shape == (160, 160)


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
        xs = rng.uniform(0, hf.x_extent(), 200)
        ys = rng.uniform(-hf.y_extent() / 2, hf.y_extent() / 2, 200)
        vals, ok = sample_height_vec(hf, xs, ys)
        assert ok.all()
        for x, y, v in zip(xs, ys, vals):
            assert v == pytest.approx(sample_height(hf, x, y), abs=1e-12)

    def test_vectorized_flags_out_of_bounds(self):
        hf = generate(TerrainSpec(TerrainType.SLOPE, 1))
        vals, ok = sample_height_vec(hf, np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        assert not ok[0] and ok[1]
        assert np.isnan(vals[0])


def test_non_finite_heights_rejected():
    bad = np.zeros((4, 4))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Heightfield(4, 4, 0.05, np.array([0.0, 0.0]), bad)


def test_block_max_covers_block_and_rim():
    heights = np.random.default_rng(1).normal(size=(11, 6))  # not a multiple of the block
    hf = Heightfield(11, 6, 0.05, np.array([0.0, 0.0]), heights)
    b = BLOCK_CELLS
    want = [[heights[max(b * i - 1, 0):b * i + b + 1, max(b * j - 1, 0):b * j + b + 1].max()
             for j in range(-(-6 // b))] for i in range(-(-11 // b))]
    assert np.array_equal(hf.block_max, want)
    assert hf.block_max is hf.block_max  # built once, on first use


@pytest.mark.parametrize("size", [0.0, -8.0, float("nan")])
def test_non_positive_tile_size_rejected(size):
    with pytest.raises(ValueError, match="tile_size must be positive"):
        TerrainSpec(TerrainType.SLOPE, 0, tile_size=size)
