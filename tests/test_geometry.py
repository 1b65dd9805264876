"""Quaternion and rotation helper tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraforge.geometry import (
    IDENTITY,
    Quaternion,
    norm3,
    orientation_angle,
    quat_from_rotvec,
    quat_exp,
    quat_from_yaw,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_steps,
    quat_to_matrices,
    quat_to_matrix,
    quat_yaw,
    quat_yaws,
    rotate_vec,
    rotate_vecs,
    skew,
    vec3,
)
from terraforge.sensors import TrajectoryKind, TrajectorySpec, odometry_stream

from reference_tick_layers import (
    reference_quat_exp,
    reference_quat_from_rotvec,
    reference_quat_multiply,
    reference_quat_normalize,
)


def random_unit_quat(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def hexes(rows):
    """Each (w, x, y, z) row's components, bit for bit."""
    return [[float(c).hex() for c in row] for row in rows]


def test_quaternion_is_its_tuple():
    """numpy reads a Quaternion as its (w, x, y, z) row, a row's floats
    make it back, and a trajectory that never turns keeps the int identity
    that odometry.jsonl writes as "qw": 1."""
    assert np.array(IDENTITY).tolist() == [1.0, 0.0, 0.0, 0.0]
    row = np.array([0.5, -0.5, 0.5, -0.5])
    q = Quaternion(*row.tolist())
    assert repr(q) == "Quaternion(w=0.5, x=-0.5, y=0.5, z=-0.5)"
    assert np.array(q).tobytes() == row.tobytes()
    traj = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, 1.0, speed=1.0)
    for p in odometry_stream(traj, 10.0):
        assert p.orientation == Quaternion(1, 0, 0, 0)
        assert [type(c) for c in p.orientation] == [int] * 4


class TestQuatNormalize:
    def test_scaled_identity(self):
        q = quat_normalize(Quaternion(2.0, 0.0, 0.0, 0.0))
        assert q == Quaternion(1.0, 0.0, 0.0, 0.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate quaternion"):
            quat_normalize(Quaternion(0.0, 0.0, 0.0, 0.0))

    def test_all_ones(self):
        q = quat_normalize(Quaternion(1.0, 1.0, 1.0, 1.0))
        assert np.allclose(np.array(q), [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        assert abs(math.hypot(*q) - 1.0) < 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            raw = Quaternion(*rng.normal(size=4))
            q = quat_normalize(raw)
            assert abs(math.hypot(*q) - 1.0) < 1e-12
            # parallel to the input
            cross = np.linalg.norm(np.cross(np.array(raw)[1:], np.array(q)[1:]))
            assert cross < 1e-9 * max(1.0, math.hypot(*raw))


def integrate(q, omega, dt):
    """One orientation step of the filter: the exact exponential of the
    body rate over dt, composed on the body side."""
    rv = np.asarray(omega, dtype=float) * dt
    return quat_normalize(quat_multiply(q, quat_exp(*rv.tolist(), norm3(rv))))


class TestQuatIntegrate:
    def test_zero_rate_is_identity_map(self):
        q = integrate(IDENTITY, vec3(0, 0, 0), 0.005)
        assert orientation_angle(q, IDENTITY) <= 1e-12

    def test_half_turn_about_z(self):
        q = integrate(IDENTITY, vec3(0, 0, math.pi), 0.1)
        # 0.1 s at pi rad/s is 0.1*pi; chain 10 of them for the half turn
        for _ in range(9):
            q = integrate(q, vec3(0, 0, math.pi), 0.1)
        assert orientation_angle(q, Quaternion(0.0, 0.0, 0.0, 1.0)) <= 1e-9

    def test_2000_small_steps_accumulate_one_radian(self):
        q = IDENTITY
        for _ in range(2000):
            q = integrate(q, vec3(0, 0, 0.1), 0.005)
        assert abs(quat_yaw(q) - 1.0) < 1e-6

    def test_matches_exact_exponential(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            omega = rng.normal(size=3)
            dt = rng.uniform(0.001, 0.1)
            got = integrate(IDENTITY, omega, dt)
            want = quat_from_rotvec(omega * dt)
            assert orientation_angle(got, want) <= 1e-12

    def test_closed_loop_returns_to_start(self):
        # +z then -z rotations cancel; drift stays tiny over 1000 steps
        q = IDENTITY
        for _ in range(500):
            q = integrate(q, vec3(0.3, 0.1, 0.7), 0.004)
        for _ in range(500):
            q = integrate(q, vec3(-0.3, -0.1, -0.7), 0.004)
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
            ab_c = np.array(quat_multiply(quat_multiply(a, b), c))
            a_bc = np.array(quat_multiply(a, quat_multiply(b, c)))
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
        assert orientation_angle(q, nq) <= 1e-12

    def test_distinct_orientations_differ(self):
        assert orientation_angle(IDENTITY, quat_from_yaw(0.01)) > 1e-9

    @pytest.mark.parametrize("angle", [1e-12, 1e-9, 1e-8])
    def test_tiny_angle_resolved(self, angle):
        want = pytest.approx(angle, rel=1e-9, abs=0)
        assert orientation_angle(IDENTITY, quat_from_yaw(angle)) == want
        assert orientation_angle(quat_from_rotvec([0.0, angle, 0.0]), IDENTITY) == want


def test_skew_matches_cross():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)
    rows = rng.normal(size=(5, 3))  # stacked: each row's matrix
    assert skew(rows).tobytes() == np.array([skew(r) for r in rows]).tobytes()


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
    q = integrate(IDENTITY, vec3(wx, wy, wz), dt)
    assert abs(math.hypot(*q) - 1.0) < 1e-9


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


@given(st.lists(st.tuples(unit, unit, unit, unit).filter(lambda c: math.hypot(*c) > 1e-3),
                min_size=1, max_size=8),
       st.sampled_from([0.0, -0.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_array_forms_bit_equal_row_by_row(coeffs, zero, seed):
    """rotate_vecs rows equal the cross formula, quat_yaws rows atan2 of the
    yaw formula, and quat_to_matrices rows quat_to_matrix, on yaw-only rows
    with signed-zero x and y too."""
    quats = [quat_normalize(Quaternion(*c)) for c in coeffs]
    quats += [Quaternion(q.w, zero, zero, q.z) for q in quats]
    q = np.array([[p.w, p.x, p.y, p.z] for p in quats])
    v = np.random.default_rng(seed).normal(scale=10.0, size=(len(quats), 3))
    got = rotate_vecs(q, v)
    for i, p in enumerate(quats):
        u = np.array([p.x, p.y, p.z])
        t = 2.0 * np.cross(u, v[i])
        assert got[i].tobytes() == (v[i] + p.w * t + np.cross(u, t)).tobytes()
    want = [math.atan2(2.0 * (p.w * p.z + p.x * p.y), 1.0 - 2.0 * (p.y * p.y + p.z * p.z))
            for p in quats]
    assert quat_yaws(q).tobytes() == np.array(want).tobytes()
    mats = quat_to_matrices(q)
    assert mats.flags.c_contiguous
    assert mats.tobytes() == np.array([quat_to_matrix(p) for p in quats]).tobytes()


def test_array_forms_keep_the_int_identity():
    q = np.array([[1, 0, 0, 0]] * 2)
    conj = q * (1, -1, -1, -1)
    v = np.array([[1.0, -2.0, 3.0], [-0.0, 0.0, -1.0]])
    assert rotate_vecs(conj, v).tobytes() == np.array(
        [rotate_vec(Quaternion(1, 0, 0, 0), r) for r in v]).tobytes()
    assert quat_yaws(q).tolist() == [0.0, 0.0]
    assert quat_to_matrices(q).tolist() == [quat_to_matrix(Quaternion(1, 0, 0, 0)).tolist()] * 2


def test_rotate_vec_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        rotate_vec(IDENTITY, vec3(0, math.inf, 0))
    with pytest.raises(ValueError, match="3-vector"):
        rotate_vec(IDENTITY, [1.0, 2.0])


@given(st.integers(0, 2**32 - 1), st.sampled_from([3.0, 1e-3, 1e-12, 1e-13, 0.0]))
@settings(max_examples=300, deadline=None)
def test_rotvec_exponential_bit_equal_to_numpy_form(seed, scale):
    """quat_from_rotvec, in Python floats, equals its numpy form as first
    written and the frozen exponential on Quaternion fields bit for bit, on
    both sides of the 1e-12 first-order branch and at zero; norm3 equals
    np.linalg.norm."""
    rv = np.random.default_rng(seed).normal(size=3) * scale
    angle = float(np.linalg.norm(rv))
    assert norm3(rv).hex() == angle.hex()
    got = quat_from_rotvec(rv)
    assert hexes([got]) == hexes([reference_quat_from_rotvec(rv)])
    assert hexes([got]) == hexes([reference_quat_exp(*rv.tolist(), angle)])


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_quat_steps_bit_equal_to_the_quaternion_chain(seed, n):
    """quat_steps gives every orientation and step of the chain of the
    frozen normalize(multiply(q, exp(r))) on Quaternion fields bit for bit,
    with rates on both sides of the first-order branch and zero."""
    rng = np.random.default_rng(seed)
    rv = rng.normal(size=(n, 3)) * rng.choice([3.0, 1e-3, 1e-13, 0.0], size=(n, 1))
    q = random_unit_quat(rng)
    quats, steps = quat_steps(q, rv)
    want_quats, want_steps = [q], []
    for r in rv:
        want_steps.append(reference_quat_exp(*r.tolist(), float(np.linalg.norm(r))))
        want_quats.append(reference_quat_normalize(
            reference_quat_multiply(want_quats[-1], want_steps[-1])))
    assert hexes(quats.tolist()) == hexes(want_quats)
    assert hexes(steps.tolist()) == hexes(want_steps)
