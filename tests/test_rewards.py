"""Reward term tests: plane fitting, guided direction, the full table."""

import gc
import math
import weakref
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraforge.rewards import (
    PlaneFit,
    RewardInput,
    RewardWeights,
    compute_rewards,
    edge_cells,
    feet_edge_penalty,
    feet_stumble_penalty,
    fit_plane,
    guided_direction,
)
from terraforge.terrain import Robot, TerrainSpec, TerrainType, generate


def grid_points(fn, n=11, span=1.0):
    xs = np.linspace(-span, span, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    gz = fn(gx, gy)
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def frame(tau=TerrainType.SLOPE, **kw):
    base = dict(
        v_world=np.zeros(3),
        v_body_xy=np.zeros(2),
        v_z=0.0,
        omega=np.zeros(3),
        gravity_body=np.array([0.0, 0.0, -1.0]),
        yaw=0.0,
        joint_acc=np.zeros(12),
        body_height=0.4,
        desired_height=0.4,
        action=np.zeros(12),
        prev_action=np.zeros(12),
        prev_prev_action=np.zeros(12),
        hip_angles=np.zeros(4),
        hip_angles_desired=np.zeros(4),
        foot_positions=np.zeros((4, 3)),
        foot_contact_forces=np.tile([0.0, 0.0, 30.0], (4, 1)),
        command=np.zeros(3),
        terrain_type=tau,
    )
    base.update(kw)
    return RewardInput(**base)


FLAT = PlaneFit(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.0)


class TestFitPlane:
    def test_flat(self):
        fit = fit_plane(grid_points(lambda x, y: 0 * x))
        assert np.allclose(fit.normal, [0, 0, 1], atol=1e-12)
        assert fit.rms_residual < 1e-12

    def test_inclined_analytic(self):
        fit = fit_plane(grid_points(lambda x, y: 0.5 * x))
        want = np.array([-0.5, 0.0, 1.0]) / math.sqrt(1.25)
        assert np.allclose(fit.normal, want, atol=1e-9)
        assert np.allclose(np.abs(fit.normal[:2]), [0.4472135955, 0.0], atol=1e-9)

    def test_collinear_rejected(self):
        pts = np.column_stack([np.linspace(0, 1, 12), np.zeros(12), np.zeros(12)])
        with pytest.raises(ValueError, match="degenerate point set"):
            fit_plane(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            fit_plane(np.zeros((5, 3)))

    def test_noisy_recovery_under_two_degrees(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            a, b = rng.uniform(-0.4, 0.4, 2)
            pts = grid_points(lambda x, y: a * x + b * y, n=9)
            pts[:, 2] += rng.normal(0, 0.01, len(pts))
            fit = fit_plane(pts)
            truth = np.array([-a, -b, 1.0])
            truth /= np.linalg.norm(truth)
            angle = math.degrees(math.acos(np.clip(np.dot(fit.normal, truth), -1, 1)))
            assert angle < 2.0

    def test_z_rotation_equivariance(self):
        pts = grid_points(lambda x, y: 0.3 * x - 0.2 * y)
        fit0 = fit_plane(pts)
        th = 0.7
        c, s = math.cos(th), math.sin(th)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        fit1 = fit_plane(pts @ R.T)
        assert np.allclose(fit1.normal, R @ fit0.normal, atol=1e-9)

    def test_centroid(self):
        pts = grid_points(lambda x, y: 0.1 * x) + np.array([2.0, -1.0, 0.2])
        fit = fit_plane(pts)
        assert np.allclose(fit.centroid, pts.mean(axis=0), atol=1e-12)

    def test_normal_always_up(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, 2)
            fit = fit_plane(grid_points(lambda x, y: a * x + b * y))
            assert fit.normal[2] > 0


class TestGuidedDirection:
    def test_flat_goes_forward(self):
        assert np.allclose(guided_direction(FLAT), [1, 0, 0], atol=1e-15)

    def test_half_slope(self):
        fit = PlaneFit(np.array([0.5, 0.0, math.sqrt(0.75)]), np.zeros(3), 0.0)
        assert np.allclose(guided_direction(fit), [math.sqrt(0.75), 0, 0.5], atol=1e-12)

    def test_sign_symmetry(self):
        fit = PlaneFit(np.array([-0.5, 0.0, math.sqrt(0.75)]), np.zeros(3), 0.0)
        assert np.allclose(guided_direction(fit), [math.sqrt(0.75), 0, -0.5], atol=1e-12)

    def test_closed_form_sweep(self):
        for s in np.linspace(-0.9, 0.9, 37):
            fit = PlaneFit(np.array([s, 0.0, math.sqrt(1 - s * s)]), np.zeros(3), 0.0)
            got = guided_direction(fit)
            assert np.allclose(got, [math.sqrt(1 - s * s), 0.0, s], atol=1e-12)
            assert abs(np.linalg.norm(got) - 1.0) < 1e-12
            assert got[1] == 0.0

    def test_numerical_guard(self):
        fake = SimpleNamespace(normal=np.array([1.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="outside"):
            guided_direction(fake)


class TestFeetStumble:
    def test_pure_vertical(self):
        forces = np.tile([0.0, 0.0, 30.0], (4, 1))
        flags, count = feet_stumble_penalty(forces)
        assert count == 0.0 and not flags.any()

    def test_horizontal_dominates(self):
        forces = np.array([[10.0, 0, 3.0], [0, 0, 30], [0, 0, 30], [0, 0, 30]])
        flags, count = feet_stumble_penalty(forces)
        assert count == 1.0 and flags[0]

    def test_below_ratio(self):
        forces = np.array([[4.0, 0, 3.0], [0, 0, 30], [0, 0, 30], [0, 0, 30]])
        _, count = feet_stumble_penalty(forces)
        assert count == 0.0


@pytest.fixture(scope="module")
def platform():
    return generate(TerrainSpec(TerrainType.HIGH_PLATFORM, 9))


class TestFeetEdge:

    def test_mid_platform_zero(self, platform):
        pos = np.tile([6.0, 0.0, 0.55], (4, 1))
        forces = np.tile([0.0, 0.0, 30.0], (4, 1))
        _, count = feet_edge_penalty(pos, forces, platform)
        assert count == 0.0

    def test_foot_near_step_edge(self, platform):
        # true step at x = 3.975 (L9 platform); 3 cm away, in contact
        pos = np.array([[3.945, 0.0, 0.0], [6.0, 0, 0.55],
                        [6.0, 0.3, 0.55], [6.0, -0.3, 0.55]])
        forces = np.tile([0.0, 0.0, 30.0], (4, 1))
        flags, count = feet_edge_penalty(pos, forces, platform)
        assert count == 1.0 and flags[0]

    def test_airborne_foot_ignored(self, platform):
        pos = np.array([[3.945, 0.0, 0.0], [6.0, 0, 0.55],
                        [6.0, 0.3, 0.55], [6.0, -0.3, 0.55]])
        forces = np.tile([0.0, 0.0, 30.0], (4, 1))
        forces[0] = [0.0, 0.0, 0.2]  # below the contact threshold
        _, count = feet_edge_penalty(pos, forces, platform)
        assert count == 0.0

    def test_flat_field_has_no_edges(self):
        flat = generate(TerrainSpec(TerrainType.SLOPE, 0))
        assert not edge_cells(flat).any()

    def test_edge_mask_straddles_step(self, platform):
        mask = edge_cells(platform)
        iy = platform.height // 2
        xs = platform.origin[0] + np.flatnonzero(mask[:, iy]) * platform.resolution
        assert xs.size == 2  # one cell each side of the jump
        assert np.all(np.abs(xs - 3.975) <= 0.026)


def reference_feet_edge(pos, forces, hf, edge_margin, grad_threshold,
                        contact_force_min):
    """feet_edge_penalty as first written: the edge grid rebuilt and
    scanned on every call, one foot at a time."""
    in_contact = np.abs(forces[:, 2]) >= contact_force_min
    mask = edge_cells(hf, grad_threshold)
    flags = np.zeros(4, dtype=bool)
    if not mask.any():
        return flags
    exi, eyi = np.nonzero(mask)
    ex = hf.origin[0] + exi * hf.resolution
    ey = hf.origin[1] + eyi * hf.resolution
    for i in range(4):
        if in_contact[i]:
            d2 = (ex - pos[i, 0]) ** 2 + (ey - pos[i, 1]) ** 2
            flags[i] = bool(np.min(d2) <= edge_margin**2)
    return flags


@lru_cache(maxsize=None)
def tile(terrain, level, robot):
    return generate(TerrainSpec(terrain, level, robot))


TILES = [(t, level, robot) for t in (TerrainType.GAP, TerrainType.HIGH_PLATFORM)
         for level in (0, 4, 9) for robot in Robot]
TILES += [(TerrainType.SLOPE, 0, Robot.LITE3)]  # flat: no edges at any threshold


class TestCachedEdgeField:
    @given(st.sampled_from(TILES),
           st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9, 1.5]),
           st.floats(0.0, 0.4),
           st.lists(st.tuples(st.floats(2.5, 5.5), st.floats(-4.5, 4.5),
                              st.sampled_from([0.0, 0.5, 1.0, 30.0])),
                    min_size=8, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_flags_match_brute_force(self, key, grad, margin, feet):
        hf = tile(*key)
        a = np.array(feet)
        for pos_xy, fz in ((a[:4, :2], a[:4, 2]), (a[4:, :2], a[4:, 2])):
            pos = np.column_stack([pos_xy, np.zeros(4)])
            forces = np.column_stack([np.zeros((4, 2)), fz])
            flags, count = feet_edge_penalty(pos, forces, hf, margin, grad, 1.0)
            want = reference_feet_edge(pos, forces, hf, margin, grad, 1.0)
            assert np.array_equal(flags, want)
            assert count == float(want.sum())

    def test_flat_tile_flags_nothing(self):
        flat = tile(TerrainType.SLOPE, 0, Robot.LITE3)
        pos = np.tile([4.0, 0.0, 0.0], (4, 1))
        forces = np.tile([0.0, 0.0, 30.0], (4, 1))
        flags, count = feet_edge_penalty(pos, forces, flat, 1.0, 0.0)
        assert not flags.any() and count == 0.0
        assert flat.edge_xy(0.0)[0].size == 0

    def test_edge_field_built_once_and_read_only(self, platform):
        ex, ey = platform.edge_xy(0.5)
        assert platform.edge_xy(0.5)[0] is ex
        assert not ex.flags.writeable and not ey.flags.writeable
        assert platform.edge_xy(0.1)[0] is not ex

    def test_cache_dies_with_its_terrain(self):
        hf = generate(TerrainSpec(TerrainType.GAP, 9))
        feet_edge_penalty(np.zeros((4, 3)), np.tile([0.0, 0.0, 30.0], (4, 1)), hf)
        ref = weakref.ref(hf)
        del hf
        gc.collect()
        assert ref() is None


class TestComputeRewards:
    def test_t_l_clips_at_command(self):
        inp = frame(TerrainType.HIGH_PLATFORM,
                    v_world=np.array([2.0, 0, 0]), command=np.array([1.2, 0, 0]))
        out = compute_rewards(inp, FLAT)
        assert out.raw["t_l_tracking"] == pytest.approx(1.2, abs=1e-12)

    def test_perfect_l_tracking_is_two(self):
        inp = frame(v_body_xy=np.array([0.8, -0.3]), command=np.array([0.8, -0.3, 0]))
        out = compute_rewards(inp, FLAT)
        assert out.raw["l_tracking"] == pytest.approx(2.0, abs=1e-12)

    def test_perfect_a_tracking_is_half(self):
        inp = frame(omega=np.array([0, 0, 1.5]), command=np.array([0, 0, 1.5]))
        out = compute_rewards(inp, FLAT)
        assert out.raw["a_tracking"] == pytest.approx(0.5, abs=1e-12)

    def test_nominal_frame_zero_penalties(self):
        out = compute_rewards(frame(), FLAT)
        for name in ("v_z", "omega_x", "yaw", "joint_acc", "body_height",
                     "action_rate", "smoothness", "hip_angle",
                     "feet_edge", "feet_stumble"):
            assert out.raw[name] == 0.0, name
        # gravity x and normal x both 0 on flat ground
        assert out.raw["roll"] == 0.0

    def test_composite_hand_computation(self):
        inp = frame(
            TerrainType.STAIRS,
            v_world=np.array([0.9, 0.1, 0.05]),
            v_body_xy=np.array([0.9, 0.1]),
            v_z=0.05,
            omega=np.array([0.2, -0.1, 0.3]),
            gravity_body=np.array([0.1, 0.0, -math.sqrt(0.99)]),
            joint_acc=np.full(12, 3.0),
            body_height=0.35,
            action=np.full(12, 0.1),
            prev_action=np.full(12, 0.05),
            prev_prev_action=np.full(12, 0.02),
            hip_angles=np.array([0.1, 0.1, -0.1, -0.1]),
            command=np.array([1.0, 0.0, 0.5]),
        )
        fit = PlaneFit(np.array([0.2, 0.0, math.sqrt(0.96)]), np.zeros(3), 0.0)
        out = compute_rewards(inp, fit)
        w = RewardWeights()
        want = {
            "t_l_tracking": 0.0,
            "l_tracking": 2.0 * math.exp(-4.0 * ((1.0 - 0.9) ** 2 + 0.1**2)),
            "a_tracking": 0.5 * math.exp(-4.0 * (0.5 - 0.3) ** 2),
            "v_z": -(0.05**2),
            "omega_x": -(0.2**2),
            "roll": -abs(0.1 - 0.2) ** 2,
            "yaw": 0.0,
            "joint_acc": -12 * 9.0,
            "body_height": -((0.4 - 0.35) ** 2),
            "action_rate": -12 * 0.05**2,
            "smoothness": -12 * (0.1 - 0.1 + 0.02) ** 2,
            "hip_angle": -4 * 0.01,
            "feet_edge": 0.0,
            "feet_stumble": 0.0,
        }
        for k, v in want.items():
            assert out.raw[k] == pytest.approx(v, abs=1e-12), k
        total = sum(
            want[k] * getattr(w, {"feet_edge": "feet_edge_gap",
                                  "feet_stumble": "feet_stumble_gap"}.get(k, k))
            for k in want if k not in ("feet_edge", "feet_stumble")
        )
        assert out.total == pytest.approx(total, abs=1e-12)

    def test_total_is_weighted_sum(self):
        rng = np.random.default_rng(2)
        for tau in TerrainType:
            inp = frame(
                tau,
                v_world=rng.normal(size=3),
                v_body_xy=rng.normal(size=2),
                v_z=rng.normal(),
                omega=rng.normal(size=3),
                joint_acc=rng.normal(size=12),
                action=rng.normal(size=12),
                prev_action=rng.normal(size=12),
                prev_prev_action=rng.normal(size=12),
                hip_angles=rng.normal(size=4) * 0.1,
                command=rng.uniform(0.3, 1.2, 3),
            )
            out = compute_rewards(inp, FLAT)
            assert out.total == pytest.approx(
                sum(out.weighted.values()), abs=1e-12)

    def test_weight_scaling_linearity(self):
        inp = frame(
            TerrainType.GAP,
            v_body_xy=np.array([0.5, 0.0]),
            v_z=0.1,
            omega=np.array([0.1, 0, 0.2]),
            action=np.full(12, 0.2),
            command=np.array([0.8, 0, 0]),
            foot_contact_forces=np.array(
                [[10.0, 0, 3.0], [0, 0, 30], [0, 0, 30], [0, 0, 30]]),
        )
        w1 = RewardWeights()
        scaled = {f: getattr(w1, f) * 2.5 for f in (
            "t_l_tracking", "l_tracking", "a_tracking", "v_z", "omega_x",
            "roll", "yaw", "joint_acc", "body_height", "action_rate",
            "smoothness", "hip_angle", "feet_edge_gap", "feet_edge_platform",
            "feet_stumble_gap", "feet_stumble_platform")}
        w2 = RewardWeights(**scaled)
        t1 = compute_rewards(inp, FLAT, w1).total
        t2 = compute_rewards(inp, FLAT, w2).total
        assert t2 == pytest.approx(2.5 * t1, abs=1e-12)

    def test_terrain_gating(self):
        moving = dict(v_world=np.array([1.0, 0, 0.3]), v_z=0.3, yaw=0.2,
                      command=np.array([1.0, 0, 0]))
        on_t5 = compute_rewards(frame(TerrainType.HIGH_PLATFORM, **moving), FLAT)
        on_t1 = compute_rewards(frame(TerrainType.SLOPE, **moving), FLAT)
        # vertical-velocity penalty off while jumping is expected
        assert on_t5.raw["v_z"] == 0.0 and on_t1.raw["v_z"] != 0.0
        assert on_t5.raw["yaw"] != 0.0 and on_t1.raw["yaw"] == 0.0
        assert on_t5.raw["t_l_tracking"] != 0.0 and on_t1.raw["t_l_tracking"] == 0.0
        assert on_t5.raw["l_tracking"] == 0.0 and on_t1.raw["l_tracking"] != 0.0

    def test_feet_weight_selection(self):
        stumble_forces = np.array(
            [[10.0, 0, 3.0], [0, 0, 30], [0, 0, 30], [0, 0, 30]])
        gap = compute_rewards(
            frame(TerrainType.GAP, foot_contact_forces=stumble_forces), FLAT)
        plat = compute_rewards(
            frame(TerrainType.HIGH_PLATFORM, foot_contact_forces=stumble_forces), FLAT)
        slope = compute_rewards(
            frame(TerrainType.SLOPE, foot_contact_forces=stumble_forces), FLAT)
        assert gap.weighted["feet_stumble"] == -10.0
        assert plat.weighted["feet_stumble"] == -1.0
        assert slope.raw["feet_stumble"] == 0.0

    def test_t_l_bounded_by_command_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            s = rng.uniform(-0.9, 0.9)
            fit = PlaneFit(np.array([s, 0, math.sqrt(1 - s * s)]), np.zeros(3), 0.0)
            inp = frame(TerrainType.HIGH_PLATFORM,
                        v_world=rng.normal(0, 2, 3),
                        command=np.array([rng.uniform(0.3, 1.2), 0, 0]))
            out = compute_rewards(inp, fit)
            assert out.raw["t_l_tracking"] <= inp.command[0] + 1e-12

    def test_non_finite_rejected(self):
        inp = frame(v_z=math.nan)
        with pytest.raises(ValueError, match="non-finite"):
            compute_rewards(inp, FLAT)

    def test_as_record_round_trip_keys(self):
        out = compute_rewards(frame(), FLAT)
        rec = out.as_record(123)
        assert rec["timestamp_ns"] == 123
        assert rec["total"] == out.total
        assert rec["raw_l_tracking"] == out.raw["l_tracking"]


class TestRewardWeights:
    def test_defaults(self):
        w = RewardWeights()
        assert w.t_l_tracking == 3.0
        assert w.joint_acc == -2.5e-7
        assert w.feet_edge_gap == -10.0


class TestRewardInput:
    def test_gravity_must_be_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            frame(gravity_body=np.array([0.0, 0.0, -0.5]))

    def test_arity_checks(self):
        with pytest.raises(ValueError, match="joint_acc"):
            frame(joint_acc=np.zeros(10))
        with pytest.raises(ValueError, match="foot_positions"):
            frame(foot_positions=np.zeros((3, 3)))
