"""Reward term tests: plane fitting, guided direction, the full table."""

import gc
import json
import math
import weakref
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraforge.rewards import (
    MAX_THRESHOLD,
    MAX_WEIGHT,
    REWARD_KEYS,
    TERMS,
    WEIGHTED,
    PlaneFit,
    RewardInput,
    RewardWeights,
    compute_rewards,
    feet_edge_penalty,
    feet_stumble_penalty,
    fit_plane,
    guided_direction,
    reward_table,
)
from terraforge.terrain import Robot, TerrainSpec, TerrainType, edge_cells, generate

from reference_tick_layers import reference_fit_plane


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


def record(table, i, fit, ts=0):
    """Frame i's reward log record."""
    return dict(zip(REWARD_KEYS, [ts, *compute_rewards(table, i, fit)]))


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

    def test_vertical_plane_is_a_valid_fit(self):
        assert PlaneFit(np.array([0.0, 1.0, 0.0]), np.zeros(3), 0.0).normal[2] == 0.0
        with pytest.raises(ValueError, match="must not point down"):
            PlaneFit(np.array([0.0, 0.0, -1.0]), np.zeros(3), 0.0)

    def test_normal_always_up(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, 2)
            fit = fit_plane(grid_points(lambda x, y: a * x + b * y))
            assert fit.normal[2] > 0

    @given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.sampled_from([0.0, 1e-3, 0.05]), st.sampled_from(["plane", "line", "point"]))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_reference(self, seed, a, b, noise, shape):
        """fit_plane is bit-equal to its numpy form as first written, and
        refuses the same degenerate sets."""
        rng = np.random.default_rng(seed)
        pts = grid_points(lambda x, y: a * x + b * y)
        if shape == "line":
            pts[:, 1] = 2.0 * pts[:, 0]
        elif shape == "point":
            pts[:] = pts[0]
        pts[:, 2] += rng.normal(0.0, noise, len(pts))
        try:
            want = reference_fit_plane(pts)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                fit_plane(pts)
            return
        got = fit_plane(pts)
        assert got.normal.tobytes() == want.normal.tobytes()
        assert got.centroid.tobytes() == want.centroid.tobytes()
        assert got.rms_residual.hex() == want.rms_residual.hex()


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
        pos = np.column_stack([a[:, :2], np.zeros(8)]).reshape(2, 4, 3)
        forces = np.column_stack([np.zeros((8, 2)), a[:, 2]]).reshape(2, 4, 3)
        want = [reference_feet_edge(pos[k], forces[k], hf, margin, grad, 1.0)
                for k in range(2)]
        for k in range(2):
            flags, count = feet_edge_penalty(pos[k], forces[k], hf, margin, grad, 1.0)
            assert np.array_equal(flags, want[k])
            assert count == float(want[k].sum())
        # both frames as one stack
        flags, counts = feet_edge_penalty(pos, forces, hf, margin, grad, 1.0)
        assert np.array_equal(flags, want)
        assert counts.tolist() == [float(w.sum()) for w in want]

    def test_flat_tile_flags_nothing(self):
        flat = tile(TerrainType.SLOPE, 0, Robot.LITE3)
        pos = np.tile([4.0, 0.0, 0.0], (4, 1))
        forces = np.tile([0.0, 0.0, 30.0], (4, 1))
        flags, count = feet_edge_penalty(pos, forces, flat, 1.0, 0.0)
        assert not flags.any() and count == 0.0
        assert flat.edge_xy(0.0)[0].size == 0

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
        out = record(reward_table(inp), 0, FLAT)
        assert out["raw_t_l_tracking"] == pytest.approx(1.2, abs=1e-12)

    def test_perfect_l_tracking_is_two(self):
        inp = frame(v_body_xy=np.array([0.8, -0.3]), command=np.array([0.8, -0.3, 0]))
        out = record(reward_table(inp), 0, FLAT)
        assert out["raw_l_tracking"] == pytest.approx(2.0, abs=1e-12)

    def test_perfect_a_tracking_is_half(self):
        inp = frame(omega=np.array([0, 0, 1.5]), command=np.array([0, 0, 1.5]))
        out = record(reward_table(inp), 0, FLAT)
        assert out["raw_a_tracking"] == pytest.approx(0.5, abs=1e-12)

    def test_nominal_frame_zero_penalties(self):
        out = record(reward_table(frame()), 0, FLAT)
        for name in ("v_z", "omega_x", "yaw", "joint_acc", "body_height",
                     "action_rate", "smoothness", "hip_angle",
                     "feet_edge", "feet_stumble"):
            assert out[f"raw_{name}"] == 0.0, name
        # gravity x and normal x both 0 on flat ground
        assert out["raw_roll"] == 0.0

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
        out = record(reward_table(inp), 0, fit)
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
            assert out[f"raw_{k}"] == pytest.approx(v, abs=1e-12), k
        total = sum(
            want[k] * getattr(w, {"feet_edge": "feet_edge_gap",
                                  "feet_stumble": "feet_stumble_gap"}.get(k, k))
            for k in want if k not in ("feet_edge", "feet_stumble")
        )
        assert out["total"] == pytest.approx(total, abs=1e-12)

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
            out = record(reward_table(inp), 0, FLAT)
            assert out["total"] == pytest.approx(
                sum(out[f"weighted_{k}"] for k in TERMS), abs=1e-12)

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
        t1 = record(reward_table(inp, w1), 0, FLAT)["total"]
        t2 = record(reward_table(inp, w2), 0, FLAT)["total"]
        assert t2 == pytest.approx(2.5 * t1, abs=1e-12)

    def test_terrain_gating(self):
        moving = dict(v_world=np.array([1.0, 0, 0.3]), v_z=0.3, yaw=0.2,
                      command=np.array([1.0, 0, 0]))
        on_t5, on_t1 = (record(reward_table(frame(tau, **moving)), 0, FLAT)
                        for tau in (TerrainType.HIGH_PLATFORM, TerrainType.SLOPE))
        # vertical-velocity penalty off while jumping is expected
        assert on_t5["raw_v_z"] == 0.0 and on_t1["raw_v_z"] != 0.0
        assert on_t5["raw_yaw"] != 0.0 and on_t1["raw_yaw"] == 0.0
        assert on_t5["raw_t_l_tracking"] != 0.0 and on_t1["raw_t_l_tracking"] == 0.0
        assert on_t5["raw_l_tracking"] == 0.0 and on_t1["raw_l_tracking"] != 0.0

    def test_feet_weight_selection(self):
        stumble_forces = np.array(
            [[10.0, 0, 3.0], [0, 0, 30], [0, 0, 30], [0, 0, 30]])
        gap, plat, slope = (
            record(reward_table(frame(tau, foot_contact_forces=stumble_forces)), 0, FLAT)
            for tau in (TerrainType.GAP, TerrainType.HIGH_PLATFORM, TerrainType.SLOPE))
        assert gap["weighted_feet_stumble"] == -10.0
        assert plat["weighted_feet_stumble"] == -1.0
        assert slope["raw_feet_stumble"] == 0.0

    def test_t_l_bounded_by_command_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            s = rng.uniform(-0.9, 0.9)
            fit = PlaneFit(np.array([s, 0, math.sqrt(1 - s * s)]), np.zeros(3), 0.0)
            inp = frame(TerrainType.HIGH_PLATFORM,
                        v_world=rng.normal(0, 2, 3),
                        command=np.array([rng.uniform(0.3, 1.2), 0, 0]))
            out = record(reward_table(inp), 0, fit)
            assert out["raw_t_l_tracking"] <= inp.command[0] + 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            reward_table(frame(v_z=math.nan))

    def test_record_keys_and_values(self):
        inp = frame(TerrainType.GAP, v_body_xy=np.array([0.5, 0.0]), command=np.array([0.8, 0, 0]))
        values = compute_rewards(reward_table(inp), 0, FLAT)
        assert REWARD_KEYS == ("timestamp_ns", *(f"raw_{k}" for k in TERMS),
                               *(f"weighted_{k}" for k in TERMS), "total")
        assert len(values) == len(REWARD_KEYS) - 1
        assert REWARD_KEYS[1:][WEIGHTED] == tuple(f"weighted_{k}" for k in TERMS)
        rec = record(reward_table(inp), 0, FLAT, ts=123)
        assert rec["timestamp_ns"] == 123
        assert rec["raw_l_tracking"] == 2.0 * math.exp(-4.0 * (0.8 - 0.5) ** 2)
        assert rec["weighted_l_tracking"] == rec["raw_l_tracking"] * RewardWeights().l_tracking
        assert rec["total"] == sum(values[WEIGHTED])


class TestRewardWeights:
    def test_defaults(self):
        w = RewardWeights()
        assert w.t_l_tracking == 3.0
        assert w.joint_acc == -2.5e-7
        assert w.feet_edge_gap == -10.0

    @pytest.mark.parametrize("key, value", [
        ("l_tracking", 1e308), ("feet_edge_gap", -1e308), ("roll", math.inf),
        ("yaw", math.nan), ("edge_margin", 1e300), ("edge_margin", -0.01),
        ("grad_threshold", math.nan), ("stumble_ratio", math.inf),
        ("contact_force_min", -1.0)])
    def test_out_of_range_refused_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            RewardWeights(**{key: value})

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_weights_and_thresholds_stay_finite(self, sign, platform):
        """Every weight at +-MAX_WEIGHT against the largest raw term a replay
        computes, a body 1,000 m above its ground for a desired height of
        -1,000 m, with every foot within MAX_THRESHOLD of an edge and a
        stumble ratio of MAX_THRESHOLD against its 30 N contact force."""
        weights = RewardWeights(**dict.fromkeys(WEIGHT_FIELDS, sign * MAX_WEIGHT),
                                edge_margin=MAX_THRESHOLD, stumble_ratio=MAX_THRESHOLD)
        inp = frame(TerrainType.HIGH_PLATFORM, body_height=1000.0, desired_height=-1000.0)
        rec = record(reward_table(inp, weights, platform), 0, FLAT)
        assert (rec["raw_body_height"], rec["raw_feet_edge"]) == (-4e6, 4.0)
        assert all(map(math.isfinite, rec.values()))


class TestRewardInput:
    def test_gravity_must_be_unit(self):
        with pytest.raises(ValueError, match="unit-norm"):
            frame(gravity_body=np.array([0.0, 0.0, -0.5]))

    def test_arity_checks(self):
        with pytest.raises(ValueError, match="joint_acc"):
            frame(joint_acc=np.zeros(10))
        with pytest.raises(ValueError, match="foot_positions"):
            frame(foot_positions=np.zeros((3, 3)))


def reference_compute_rewards(inp, fit, weights, terrain):
    """compute_rewards as first written: one frame, scalar arithmetic."""
    w = weights
    tau = inp.terrain_type
    v_cmd_x, v_cmd_y, w_cmd = inp.command
    raw, wts = {}, {}
    if tau is TerrainType.HIGH_PLATFORM:
        raw["t_l_tracking"] = float(min(np.dot(inp.v_world, guided_direction(fit)), v_cmd_x))
    else:
        raw["t_l_tracking"] = 0.0
    wts["t_l_tracking"] = w.t_l_tracking
    if tau is not TerrainType.HIGH_PLATFORM:
        err = (v_cmd_x - inp.v_body_xy[0]) ** 2 + (v_cmd_y - inp.v_body_xy[1]) ** 2
        raw["l_tracking"] = float(2.0 * math.exp(-4.0 * err))
    else:
        raw["l_tracking"] = 0.0
    wts["l_tracking"] = w.l_tracking
    raw["a_tracking"] = float(0.5 * math.exp(-4.0 * (w_cmd - inp.omega[2]) ** 2))
    wts["a_tracking"] = w.a_tracking
    raw["v_z"] = float(-inp.v_z**2) if tau is not TerrainType.HIGH_PLATFORM else 0.0
    wts["v_z"] = w.v_z
    raw["omega_x"] = float(-inp.omega[0] ** 2)
    wts["omega_x"] = w.omega_x
    raw["roll"] = float(-abs(inp.gravity_body[0] - fit.normal[0]) ** 2)
    wts["roll"] = w.roll
    raw["yaw"] = float(-inp.yaw**2) if tau is TerrainType.HIGH_PLATFORM else 0.0
    wts["yaw"] = w.yaw
    raw["joint_acc"] = float(-np.sum(inp.joint_acc**2))
    wts["joint_acc"] = w.joint_acc
    raw["body_height"] = float(-((inp.desired_height - inp.body_height) ** 2))
    wts["body_height"] = w.body_height
    raw["action_rate"] = float(-np.sum((inp.action - inp.prev_action) ** 2))
    wts["action_rate"] = w.action_rate
    raw["smoothness"] = float(
        -np.sum((inp.action - 2.0 * inp.prev_action + inp.prev_prev_action) ** 2))
    wts["smoothness"] = w.smoothness
    raw["hip_angle"] = float(-np.sum((inp.hip_angles_desired - inp.hip_angles) ** 2))
    wts["hip_angle"] = w.hip_angle
    gap_platform = tau in (TerrainType.GAP, TerrainType.HIGH_PLATFORM)
    if gap_platform and terrain is not None:
        flags = reference_feet_edge(inp.foot_positions, inp.foot_contact_forces, terrain,
                                    w.edge_margin, w.grad_threshold, w.contact_force_min)
        raw["feet_edge"] = float(flags.sum())
    else:
        raw["feet_edge"] = 0.0
    wts["feet_edge"] = (w.feet_edge_gap if tau is TerrainType.GAP
                        else w.feet_edge_platform if tau is TerrainType.HIGH_PLATFORM
                        else 0.0)
    f = inp.foot_contact_forces
    stumble = np.linalg.norm(f[:, :2], axis=1) > w.stumble_ratio * np.abs(f[:, 2])
    raw["feet_stumble"] = float(stumble.sum()) if gap_platform else 0.0
    wts["feet_stumble"] = (w.feet_stumble_gap if tau is TerrainType.GAP
                           else w.feet_stumble_platform if tau is TerrainType.HIGH_PLATFORM
                           else 0.0)
    weighted = {k: raw[k] * wts[k] for k in raw}
    return {"timestamp_ns": 0, **{f"raw_{k}": v for k, v in raw.items()},
            **{f"weighted_{k}": v for k, v in weighted.items()},
            "total": float(sum(weighted.values()))}


def record_bytes(rec) -> str:
    return json.dumps(rec)  # repr floats: -0.0 and last bits count


WEIGHT_FIELDS = ("t_l_tracking", "l_tracking", "a_tracking", "v_z", "omega_x", "roll",
                 "yaw", "joint_acc", "body_height", "action_rate", "smoothness",
                 "hip_angle", "feet_edge_gap", "feet_edge_platform", "feet_stumble_gap",
                 "feet_stumble_platform")


@st.composite
def random_weights(draw):
    values = {f: draw(st.floats(-20.0, 20.0)) for f in WEIGHT_FIELDS}
    return RewardWeights(**values, edge_margin=draw(st.floats(0.0, 0.3)),
                         grad_threshold=draw(st.sampled_from([0.1, 0.5])),
                         stumble_ratio=draw(st.floats(0.5, 3.0)))


def random_frames(seed, tau, n, hf):
    """n random frames over the tile, with stumbling and airborne feet."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, 3))
    forces = rng.normal(0.0, 20.0, (n, 4, 3))
    forces[rng.random((n, 4)) < 0.3] = [0.0, 0.0, 30.0]
    feet = np.concatenate([rng.uniform(2.5, 5.5, (n, 4, 1)),
                           rng.uniform(-1.0, 1.0, (n, 4, 1)), rng.normal(size=(n, 4, 1))], axis=2)
    return [frame(
        tau, v_world=rng.normal(size=3), v_body_xy=rng.normal(size=2), v_z=rng.normal(),
        omega=rng.normal(size=3), gravity_body=g[k] / np.linalg.norm(g[k]),
        yaw=rng.normal(), joint_acc=rng.normal(0, 30, 12), body_height=rng.uniform(0, 1),
        desired_height=rng.uniform(0.3, 0.5), action=rng.normal(size=12),
        prev_action=rng.normal(size=12), prev_prev_action=rng.normal(size=12),
        hip_angles=rng.normal(size=4), hip_angles_desired=rng.normal(size=4),
        foot_positions=feet[k], foot_contact_forces=forces[k],
        command=rng.uniform(-1.2, 1.2, 3)) for k in range(n)]


def stack(frames):
    """One RewardInput holding every frame along a leading axis."""
    fields = {name: np.array([getattr(f, name) for f in frames])
              for name in vars(frames[0]) if name != "terrain_type"}
    return RewardInput(**fields, terrain_type=frames[0].terrain_type)


class TestRewardTable:
    @given(st.sampled_from(list(TerrainType)), st.sampled_from(TILES), random_weights(),
           st.integers(0, 2**32 - 1), st.floats(-0.9, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_scalar_formulas(self, tau, key, weights, seed, s):
        """Every term, weighted term and total of every frame, alone and
        stacked, is the first-written scalar arithmetic's to the last bit."""
        hf = tile(*key)
        frames = random_frames(seed, tau, 5, hf)
        fit = PlaneFit(np.array([s, 0.0, math.sqrt(1 - s * s)]), np.zeros(3), 0.0)
        table = reward_table(stack(frames), weights, hf)
        assert len(table.raw) == 5
        for k, inp in enumerate(frames):
            want = record_bytes(reference_compute_rewards(inp, fit, weights, hf))
            assert record_bytes(record(reward_table(inp, weights, hf), 0, fit)) == want
            assert record_bytes(record(table, k, fit)) == want

    def test_fit_terms_wait_for_the_fit(self):
        table = reward_table(frame(TerrainType.HIGH_PLATFORM, v_world=np.array([1.0, 0, 0]),
                                   gravity_body=np.array([0.6, 0.0, -0.8]),
                                   command=np.array([1.2, 0, 0])))
        fit_terms = [TERMS.index("t_l_tracking"), TERMS.index("roll")]
        assert table.raw[0, fit_terms].tolist() == [0.0, 0.0]
        out = record(table, 0, FLAT)
        assert out["raw_t_l_tracking"] == 1.0 and out["raw_roll"] == -(0.6**2)

    def test_table_indexing(self):
        table = reward_table(stack([frame(v_z=0.1), frame(v_z=0.2), frame(v_z=0.3)]))
        assert record(table, -1, FLAT)["raw_v_z"] == -(0.3**2)
        with pytest.raises(IndexError):
            compute_rewards(table, 3, FLAT)

    def test_non_finite_anywhere_in_a_stack_rejected(self):
        frames = [frame(), frame(foot_positions=np.full((4, 3), math.inf))]
        with pytest.raises(ValueError, match="non-finite"):
            reward_table(stack(frames))

    def test_stack_shapes_checked(self):
        frames = stack([frame(), frame()])
        with pytest.raises(ValueError, match=r"v_z must have shape \(2,\)"):
            RewardInput(**{**vars(frames), "v_z": 0.0})
        with pytest.raises(ValueError, match="unit-norm"):
            RewardInput(**{**vars(frames), "gravity_body": np.array([[0, 0, -1.0], [0, 0, -2.0]])})
