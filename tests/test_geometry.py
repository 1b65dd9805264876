"""Quaternion and rotation helper tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraforge.geometry import (
    IDENTITY,
    Quaternion,
    orientation_angle,
    quat_from_rotvec,
    quat_from_yaw,
    quat_integrate,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    quat_yaw,
    rotate_vec,
    same_orientation,
    skew,
    vec3,
)


def random_unit_quat(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


class TestQuatNormalize:
    def test_scaled_identity(self):
        q = quat_normalize(Quaternion(2.0, 0.0, 0.0, 0.0))
        assert q == Quaternion(1.0, 0.0, 0.0, 0.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate quaternion"):
            quat_normalize(Quaternion(0.0, 0.0, 0.0, 0.0))

    def test_all_ones(self):
        q = quat_normalize(Quaternion(1.0, 1.0, 1.0, 1.0))
        assert np.allclose(q.as_array(), [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        assert abs(q.norm() - 1.0) < 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            raw = Quaternion(*rng.normal(size=4))
            q = quat_normalize(raw)
            assert abs(q.norm() - 1.0) < 1e-12
            # parallel to the input
            cross = np.linalg.norm(
                np.cross(raw.as_array()[1:], q.as_array()[1:])
            )
            assert cross < 1e-9 * max(1.0, raw.norm())


class TestQuatIntegrate:
    def test_zero_rate_is_identity_map(self):
        q = quat_integrate(IDENTITY, vec3(0, 0, 0), 0.005)
        assert same_orientation(q, IDENTITY, tol=1e-12)

    def test_half_turn_about_z(self):
        q = quat_integrate(IDENTITY, vec3(0, 0, math.pi), 0.1)
        # 0.1 s at pi rad/s is 0.1*pi; chain 10 of them for the half turn
        for _ in range(9):
            q = quat_integrate(q, vec3(0, 0, math.pi), 0.1)
        assert same_orientation(q, Quaternion(0.0, 0.0, 0.0, 1.0), tol=1e-9)

    def test_2000_small_steps_accumulate_one_radian(self):
        q = IDENTITY
        for _ in range(2000):
            q = quat_integrate(q, vec3(0, 0, 0.1), 0.005)
        assert abs(quat_yaw(q) - 1.0) < 1e-6

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            quat_integrate(IDENTITY, vec3(0, 0, 1), 0.0)
        with pytest.raises(ValueError):
            quat_integrate(IDENTITY, vec3(0, 0, 1), 0.11)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quat_integrate(IDENTITY, vec3(math.nan, 0, 0), 0.005)

    def test_matches_exact_exponential(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            omega = rng.normal(size=3)
            dt = rng.uniform(0.001, 0.1)
            got = quat_integrate(IDENTITY, omega, dt)
            want = quat_from_rotvec(omega * dt)
            assert same_orientation(got, want, tol=1e-12)

    def test_closed_loop_returns_to_start(self):
        # +z then -z rotations cancel; drift stays tiny over 1000 steps
        q = IDENTITY
        for _ in range(500):
            q = quat_integrate(q, vec3(0.3, 0.1, 0.7), 0.004)
        for _ in range(500):
            q = quat_integrate(q, vec3(-0.3, -0.1, -0.7), 0.004)
        assert orientation_angle(q, IDENTITY) < 1e-6


class TestRotateVec:
    def test_identity(self):
        assert np.allclose(rotate_vec(IDENTITY, vec3(1, 2, 3)), [1, 2, 3])

    def test_quarter_turn_about_z(self):
        q = quat_from_yaw(math.pi / 2)
        assert np.allclose(rotate_vec(q, vec3(1, 0, 0)), [0, 1, 0], atol=1e-12)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = random_unit_quat(rng)
            v = rng.normal(size=3)
            assert np.allclose(rotate_vec(q, v), quat_to_matrix(q) @ v, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = random_unit_quat(rng)
            v = rng.normal(size=3)
            assert abs(np.linalg.norm(rotate_vec(q, v)) - np.linalg.norm(v)) < 1e-12


class TestRotationMatrix:
    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            R = quat_to_matrix(random_unit_quat(rng))
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_composition_associative(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b, c = (random_unit_quat(rng) for _ in range(3))
            ab_c = quat_multiply(quat_multiply(a, b), c).as_array()
            a_bc = quat_multiply(a, quat_multiply(b, c)).as_array()
            if np.dot(ab_c, a_bc) < 0:
                a_bc = -a_bc
            # acos-based angle loses half the digits near zero; compare
            # components directly
            assert np.allclose(ab_c, a_bc, atol=1e-9)

    def test_multiply_matches_matrix_product(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_unit_quat(rng), random_unit_quat(rng)
            left = quat_to_matrix(quat_multiply(a, b))
            right = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.allclose(left, right, atol=1e-12)


class TestLogExp:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rv = rng.normal(size=3)
            rv *= rng.uniform(0, 3.0) / max(np.linalg.norm(rv), 1e-12)
            back = quat_log(quat_from_rotvec(rv))
            assert np.allclose(back, rv, atol=1e-9)

    def test_small_angle(self):
        rv = np.array([1e-9, -2e-9, 3e-9])
        assert np.allclose(quat_log(quat_from_rotvec(rv)), rv, atol=1e-15)

    def test_negated_quat_same_rotation_vector_direction(self):
        q = quat_from_rotvec([0.3, 0.2, -0.1])
        nq = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert np.allclose(quat_log(q), quat_log(nq), atol=1e-12)


class TestOrientationEquality:
    def test_q_and_minus_q_equal(self):
        q = quat_from_rotvec([0.4, -0.2, 0.9])
        nq = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert same_orientation(q, nq, tol=1e-12)

    def test_distinct_orientations_differ(self):
        assert not same_orientation(IDENTITY, quat_from_yaw(0.01))


def test_skew_matches_cross():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)


@given(st.floats(-math.pi, math.pi))
@settings(max_examples=50, deadline=None)
def test_yaw_round_trip(yaw):
    assert abs(quat_yaw(quat_from_yaw(yaw)) - yaw) < 1e-12


@given(
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(0.001, 0.1),
)
@settings(max_examples=50, deadline=None)
def test_integrate_always_unit_norm(wx, wy, wz, dt):
    q = quat_integrate(IDENTITY, vec3(wx, wy, wz), dt)
    assert abs(q.norm() - 1.0) < 1e-9


unit = st.floats(-1.0, 1.0, allow_nan=False)


@given(st.tuples(unit, unit, unit, unit).filter(lambda c: math.hypot(*c) > 1e-3),
       st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3))
@settings(max_examples=200, deadline=None)
def test_rotate_vec_bit_equal_to_cross_formula(coeffs, v):
    q = quat_normalize(Quaternion(*coeffs))
    v = np.array(v)
    u = np.array([q.x, q.y, q.z])
    t = 2.0 * np.cross(u, v)
    assert np.array_equal(rotate_vec(q, v), v + q.w * t + np.cross(u, t))


def test_rotate_vec_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        rotate_vec(IDENTITY, vec3(0, math.inf, 0))
    with pytest.raises(ValueError, match="3-vector"):
        rotate_vec(IDENTITY, [1.0, 2.0])
