"""Observation frames, randomization draws, PD math, and loss formulas."""

import math

import numpy as np
import pytest

from terraforge.observations import (
    CONTEXT_LATENT_DIM,
    ELEVATION_LATENT_DIM,
    FRAME_DIM,
    HISTORY_DIM,
    ObservationFrame,
    ObservationHistory,
    PDGains,
    PrivilegedState,
    RandomizationDraw,
    joint_targets,
    kl_diag_gaussian,
    loss_cenet,
    loss_est,
    loss_terrain,
    loss_vae,
    pd_torque,
    sample_command,
    sample_randomization,
)
from terraforge.mapping import LocalMap
from terraforge.terrain import Robot, TerrainType


def make_frame(mark=1.0):
    return ObservationFrame(
        omega=np.array([mark, 0, 0]),
        gravity=np.array([0.0, 0.0, -1.0]),
        command=np.array([0.5, 0, 0]),
        joint_angles=np.full(12, 0.1),
        joint_velocities=np.zeros(12),
        prev_action=np.zeros(12),
    )


class TestObservationFrame:
    def test_flatten_layout(self):
        f = make_frame()
        v = f.flatten()
        assert v.shape == (FRAME_DIM,)
        assert v[0] == 1.0  # omega first
        assert v[5] == -1.0  # gravity z at index 3+2
        assert v[6] == 0.5  # command x
        assert np.all(v[9:21] == 0.1)  # joint angles block

    def test_zero_frame_legal(self):
        z = ObservationFrame.zeros()
        assert not z.flatten().any()

    def test_nonzero_frame_needs_unit_gravity(self):
        with pytest.raises(ValueError, match="unit-norm"):
            ObservationFrame(
                omega=np.array([1.0, 0, 0]),
                gravity=np.array([0.0, 0.0, -0.4]),
                command=np.zeros(3),
                joint_angles=np.zeros(12),
                joint_velocities=np.zeros(12),
                prev_action=np.zeros(12),
            )

    def test_shape_check(self):
        with pytest.raises(ValueError, match="joint_angles"):
            ObservationFrame(np.zeros(3), np.zeros(3), np.zeros(3),
                             np.zeros(11), np.zeros(12), np.zeros(12))


class TestObservationHistory:
    def test_dims(self):
        h = ObservationHistory.zeros()
        assert h.flatten().shape == (HISTORY_DIM,)
        assert HISTORY_DIM == 270

    def test_push_newest_first(self):
        h = ObservationHistory.zeros()
        a, b = make_frame(1.0), make_frame(2.0)
        h = h.push(a).push(b)
        assert h.frames[0] is b
        assert h.frames[1] is a
        assert len(h.frames) == 6
        v = h.flatten()
        assert v[0] == 2.0 and v[FRAME_DIM] == 1.0

    def test_oldest_dropped(self):
        h = ObservationHistory.zeros()
        for k in range(8):
            h = h.push(make_frame(float(k)))
        marks = [f.flatten()[0] for f in h.frames]
        assert marks == [7.0, 6.0, 5.0, 4.0, 3.0, 2.0]

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="6 frames"):
            ObservationHistory((ObservationFrame.zeros(),) * 5)


class TestPrivilegedState:
    def test_accepts_local_map(self):
        lm = LocalMap(heights=np.zeros((17, 11)), xs=np.linspace(0, 1.6, 17),
                      ys=np.linspace(-0.5, 0.5, 11), resolution=0.1,
                      fill_ratio=1.0, timestamp_ns=0)
        st = PrivilegedState(make_frame(), np.zeros(3), np.zeros(3), lm)
        assert st.elevation is lm

    def test_velocity_validation(self):
        with pytest.raises(ValueError, match="body_velocity"):
            PrivilegedState(make_frame(), np.zeros(2), np.zeros(3), None)
        with pytest.raises(ValueError, match="disturbance"):
            PrivilegedState(make_frame(), np.zeros(3),
                            np.array([np.nan, 0, 0]), None)


class TestRandomization:
    def test_draw_in_range(self):
        for seed in range(50):
            d = sample_randomization(seed)
            assert -1.0 <= d.payload_kg <= 2.0
            assert 0.9 <= d.kp_factor <= 1.1
            assert 0.9 <= d.kd_factor <= 1.1
            assert 0.9 <= d.motor_strength_factor <= 1.1
            assert d.com_shift_mm.shape == (3,)
            assert np.all(np.abs(d.com_shift_mm) <= 50.0)
            assert 0.2 <= d.friction <= 1.25
            assert 0.0 <= d.system_delay_ms <= 15.0
            assert 0.0 <= d.map_noise_ratio <= 0.1
            assert -1.0 <= d.map_noise_magnitude <= 2.0

    def test_deterministic(self):
        a, b = sample_randomization(9), sample_randomization(9)
        assert a.payload_kg == b.payload_kg
        assert np.array_equal(a.com_shift_mm, b.com_shift_mm)

    def test_seeds_differ(self):
        assert sample_randomization(0).friction != sample_randomization(1).friction

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="friction"):
            RandomizationDraw(0.0, 1.0, 1.0, 1.0, np.zeros(3),
                              2.0, 0.0, 0.0, 0.0)


class TestPDControl:
    def test_gains_per_robot(self):
        assert PDGains.for_robot(Robot.LITE3) == PDGains(30.0, 1.0)
        assert PDGains.for_robot(Robot.X30) == PDGains(120.0, 3.0)

    def test_gains_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PDGains(0.0, 1.0)

    def test_targets_offset_standing_pose(self):
        stand = np.full(12, 0.7)
        act = np.full(12, -0.2)
        assert np.allclose(joint_targets(act, stand), 0.5)

    def test_torque_formula(self):
        gains = PDGains(30.0, 1.0)
        tau = pd_torque(np.full(12, 0.6), np.full(12, 0.5),
                        np.full(12, 2.0), gains)
        assert np.allclose(tau, 30.0 * 0.1 - 2.0, atol=1e-12)

    def test_torque_shape_check(self):
        with pytest.raises(ValueError, match="theta_dot"):
            pd_torque(np.zeros(12), np.zeros(12), np.zeros(3), PDGains(30, 1))


class TestSampleCommand:
    def test_full_range_terrains(self):
        for tau in (TerrainType.SLOPE, TerrainType.DISCRETE_STONES, TerrainType.STAIRS):
            for seed in range(30):
                c = sample_command(tau, seed)
                assert -1.2 <= c[0] <= 1.2
                assert -1.2 <= c[1] <= 1.2
                assert -2.0 <= c[2] <= 2.0

    def test_forward_only_terrains(self):
        for tau in (TerrainType.GAP, TerrainType.HIGH_PLATFORM):
            for seed in range(30):
                c = sample_command(tau, seed)
                assert 0.3 <= c[0] <= 1.2
                assert c[1] == 0.0 and c[2] == 0.0

    def test_deterministic_and_rng_passthrough(self):
        assert np.array_equal(sample_command(TerrainType.SLOPE, 4),
                              sample_command(TerrainType.SLOPE, 4))
        rng = np.random.default_rng(4)
        c = sample_command(TerrainType.SLOPE, rng)
        assert np.array_equal(c, sample_command(TerrainType.SLOPE, 4))


class TestLosses:
    def test_est_mse(self):
        assert loss_est([1, 0, 0], [0, 0, 0]) == pytest.approx(1 / 3)
        assert loss_est([1, 2, 3], [1, 2, 3]) == 0.0

    def test_est_shape(self):
        with pytest.raises(ValueError, match="3-vector"):
            loss_est([1, 0], [0, 0, 0])

    def test_kl_zero_at_standard_normal(self):
        assert kl_diag_gaussian(np.zeros(16), np.zeros(16)) == 0.0

    def test_kl_known_values(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        assert kl_diag_gaussian([1.0], [0.0]) == pytest.approx(0.5, abs=1e-12)
        # KL(N(0,2) || N(0,1)) = (2 - 1 - ln 2)/2
        assert kl_diag_gaussian([0.0], [math.log(2.0)]) == pytest.approx(
            0.5 * (1.0 - math.log(2.0)), abs=1e-12)

    def test_kl_additive_over_dims(self):
        mu = np.array([0.3, -0.7])
        lv = np.array([0.2, -0.4])
        assert kl_diag_gaussian(mu, lv) == pytest.approx(
            kl_diag_gaussian(mu[:1], lv[:1]) + kl_diag_gaussian(mu[1:], lv[1:]),
            abs=1e-12)

    def test_kl_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            mu = rng.uniform(-1, 1, CONTEXT_LATENT_DIM)
            lv = rng.uniform(-1, 1, CONTEXT_LATENT_DIM)
            sigma = np.exp(0.5 * lv)
            x = mu + sigma * rng.standard_normal((100_000, CONTEXT_LATENT_DIM))
            log_q = -0.5 * (((x - mu) / sigma) ** 2 + lv + math.log(2 * math.pi))
            log_p = -0.5 * (x**2 + math.log(2 * math.pi))
            mc = float(np.mean(np.sum(log_q - log_p, axis=1)))
            assert kl_diag_gaussian(mu, lv) == pytest.approx(mc, abs=1e-2 * 3)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mu = rng.normal(size=8)
            lv = rng.normal(size=8)
            assert kl_diag_gaussian(mu, lv) >= 0.0

    def test_kl_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            kl_diag_gaussian(np.zeros(3), np.zeros(4))

    def test_vae_combines_parts(self):
        recon = np.full(45, 0.1)
        target = np.zeros(45)
        mu, lv = np.array([1.0]), np.array([0.0])
        got = loss_vae(recon, target, mu, lv, beta=0.2)
        assert got == pytest.approx(0.01 + 0.2 * 0.5, abs=1e-12)

    def test_vae_beta_zero_is_pure_mse(self):
        recon, target = np.ones(10), np.zeros(10)
        assert loss_vae(recon, target, [3.0], [1.0], 0.0) == pytest.approx(1.0)

    def test_vae_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta"):
            loss_vae(np.zeros(3), np.zeros(3), [0.0], [0.0], -0.1)

    def test_vae_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            loss_vae(np.zeros(4), np.zeros(5), [0.0], [0.0], 1.0)

    def test_cenet_sum(self):
        assert loss_cenet(0.25, 1.5) == 1.75
        with pytest.raises(ValueError, match="non-finite"):
            loss_cenet(math.inf, 0.0)

    def test_terrain_mse(self):
        a = np.full((17, 11), 0.2)
        b = np.zeros((17, 11))
        assert loss_terrain(a, b) == pytest.approx(0.04, abs=1e-12)
        with pytest.raises(ValueError, match="elevation"):
            loss_terrain(np.zeros((17, 11)), np.zeros((11, 17)))


def test_latent_dims():
    assert CONTEXT_LATENT_DIM == 16
    assert ELEVATION_LATENT_DIM == 32
