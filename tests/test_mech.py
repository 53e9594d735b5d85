import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import vhcplan as vp
from vhcplan.mech import MechanicalSystem


def test_pvtol_matrices(pvtol):
    q = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(pvtol.mass_matrix(q), np.eye(3))
    assert np.array_equal(pvtol.coriolis(q, np.ones(3)), np.zeros((3, 3)))
    assert np.array_equal(pvtol.gravity(q), np.array([0.0, 1.0, 0.0]))
    B = pvtol.input_map(q)
    assert B.shape == (3, 2)
    assert np.allclose(B[:, 0], [-math.sin(1.1), math.cos(1.1), 0.0])
    assert np.allclose(B[:, 1], [0.0, 0.0, 1.0])


def test_annihilator_unit_norm_and_orthogonal(pvtol):
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = rng.uniform(-3.0, 3.0, 3)
        w = vp.left_annihilator(pvtol, q)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-14
        assert np.abs(w @ pvtol.input_map(q)).max() < 1e-14


def test_annihilator_matches_generic_null_space(pvtol):
    # Strip the closed-form annihilator and recompute through the cofactor route.
    generic = MechanicalSystem(n=3, mass_matrix=pvtol.mass_matrix,
                               coriolis=pvtol.coriolis, gravity=pvtol.gravity,
                               input_map=pvtol.input_map, name="pvtol-generic")
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, 3)
        w_closed = vp.left_annihilator(pvtol, q)
        w_generic = vp.left_annihilator(generic, q)
        assert np.abs(w_closed - w_generic).max() < 1e-12


def test_annihilator_rejects_rank_deficient_input_map():
    # Two parallel input columns leave a two-dimensional left null space.
    for B in (np.array([[1.0, 2.0], [0.5, 1.0], [0.0, 0.0]]), np.zeros((3, 2))):
        sys_ = MechanicalSystem(n=3, mass_matrix=lambda q: np.eye(3),
                                coriolis=lambda q, qd: np.zeros((3, 3)),
                                gravity=lambda q: np.zeros(3),
                                input_map=lambda q, B=B: B, name="rank-one")
        with pytest.raises(vp.ModelInvariantError):
            vp.left_annihilator(sys_, np.zeros(3))


def test_eval_accel_matches_hand_formula(pvtol):
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 3)
        qd = rng.uniform(-2.0, 2.0, 3)
        u = rng.uniform(-3.0, 3.0, 2)
        qdd = vp.eval_accel(pvtol, q, qd, u)
        expected = pvtol.input_map(q) @ u - np.array([0.0, 1.0, 0.0])
        assert np.abs(qdd - expected).max() < 1e-14


def test_pvtol_closed_form_accel_equals_the_generic_solve(pvtol):
    # The mass solve of the same fields is the reference, signed zeros included:
    # psi = 0 and zero inputs give products of -0.0 that the solve sums to +0.0.
    generic = dataclasses.replace(pvtol, accel=None)
    rng = np.random.default_rng(12)
    q = rng.uniform(-4.0, 4.0, (2000, 3))
    qd = rng.uniform(-3.0, 3.0, (2000, 3))
    u = rng.uniform(-3.0, 3.0, (2000, 2))
    corners = list(itertools.product((0.0, -0.0, 0.5 * math.pi, math.pi),
                                     (0.0, -0.0, 1.0, -1.0), (0.0, -0.0, 1.0, -1.0)))
    q[:len(corners), 2] = [c[0] for c in corners]
    u[:len(corners)] = [c[1:] for c in corners]
    qd[:len(corners):2] = -0.0

    def same(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    assert same(vp.eval_accel(pvtol, q, qd, u), vp.eval_accel(generic, q, qd, u))
    for point in zip(q[:300], qd[:300], u[:300]):
        assert same(vp.eval_accel(pvtol, *point), vp.eval_accel(generic, *point))
    # A copy with a replaced mass matrix drops the closed form and meets the checks.
    nan_mass = dataclasses.replace(pvtol, mass_matrix=lambda q: np.full((3, 3), np.nan),
                                   accel=None)
    with pytest.raises(vp.ModelInvariantError, match="mass matrix must be finite"):
        vp.eval_accel(nan_mass, q[0], qd[0], u[0])


def test_pvtol_closed_form_inverse_matches_the_generic_least_squares(pvtol):
    # B^T B = I holds only to rounding (sin^2 + cos^2), so u agrees with the
    # generic normal equations within 4 eps of max|u|, and the residual within
    # 1e-15; a zero comes out with the generic solve's sign, and each row of a
    # batch has the bits of its point alone.
    generic = dataclasses.replace(pvtol, inverse=None)
    rng = np.random.default_rng(14)
    q = rng.uniform(-4.0, 4.0, (10000, 3))
    qd = rng.uniform(-3.0, 3.0, (10000, 3))
    qdd = rng.uniform(-3.0, 3.0, (10000, 3))
    corners = list(itertools.product((0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi),
                                     (0.0, -0.0, 1.0, -1.0), (0.0, -0.0, -1.0, 1.0),
                                     (0.0, -0.0, 1.0, -1.0)))
    q[:len(corners), 2] = [c[0] for c in corners]
    qdd[:len(corners)] = [c[1:] for c in corners]   # q'' = 0, and z'' = -1 (no vertical force)
    qd[:len(corners):2] = -0.0
    u, residual = vp.inverse_input(pvtol, q, qd, qdd)
    u_lsq, residual_lsq = vp.inverse_input(generic, q, qd, qdd)
    assert np.abs(u - u_lsq).max() <= 4.0 * np.finfo(float).eps * np.abs(u_lsq).max()
    assert np.abs(residual - residual_lsq).max() <= 1e-15
    zero = u_lsq == 0.0
    assert zero.sum() >= 100 and np.array_equal(u == 0.0, zero)
    assert np.array_equal(np.signbit(u[zero]), np.signbit(u_lsq[zero]))
    singles = [vp.inverse_input(pvtol, *point) for point in zip(q, qd, qdd)]
    u_one = np.array([one[0] for one in singles])
    assert np.array_equal(u_one, u) and np.array_equal(np.signbit(u_one), np.signbit(u))
    assert np.array_equal([one[1] for one in singles], residual)


def test_eval_accel_rejects_non_spd_mass():
    bad = MechanicalSystem(
        n=2,
        mass_matrix=lambda q: np.array([[1.0, 0.0], [0.0, -1.0]]),
        coriolis=lambda q, qd: np.zeros((2, 2)),
        gravity=lambda q: np.zeros(2),
        input_map=lambda q: np.array([[1.0], [0.0]]),
        name="bad",
    )
    assert bad.accel is None   # the generic solve and its checks
    with pytest.raises(vp.ModelInvariantError):
        vp.eval_accel(bad, np.zeros(2), np.zeros(2), np.zeros(1))
    # One constant M for a whole batch is factorized once for every right-hand side.
    with pytest.raises(vp.ModelInvariantError):
        vp.eval_accel(bad, np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 1)))


def test_eval_accel_mass_solve_matches_numpy():
    rng = np.random.default_rng(8)
    root = rng.normal(size=(3, 3))
    M = root @ root.T + 0.5 * np.eye(3)
    C, G, B = rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=(3, 2))

    def model(mass):
        return MechanicalSystem(n=3, mass_matrix=lambda q: mass, coriolis=lambda q, qd: C,
                                gravity=lambda q: G, input_map=lambda q: B, name="random")

    assert model(M).accel is None   # the generic solve and its checks
    q, qd = rng.normal(size=(2, 3))
    u = rng.normal(size=2)
    expected = np.linalg.solve(M, B @ u - C @ qd - G)
    assert np.abs(vp.eval_accel(model(M), q, qd, u) - expected).max() \
        <= 1e-13 * np.abs(expected).max()
    # Symmetric but indefinite, or with a NaN or inf entry (one matrix or one
    # of a stack): rejected with no warning on the way.
    indefinite = M - (np.linalg.eigvalsh(M)[0] + 0.1) * np.eye(3)
    stack = np.stack([M, M, M])
    stack[1, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(vp.ModelInvariantError, match="positive definite"):
            vp.eval_accel(model(indefinite), q, qd, u)
        for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
            with pytest.raises(vp.ModelInvariantError, match="mass matrix must be finite"):
                vp.eval_accel(model(bad), q, qd, u)
        with pytest.raises(vp.ModelInvariantError, match="mass matrix must be finite"):
            vp.eval_accel(model(stack), np.stack([q] * 3), np.stack([qd] * 3), np.stack([u] * 3))


def test_eval_accel_rejects_invalid_phase_state(pvtol):
    u = np.zeros(2)
    with pytest.raises(vp.ModelInvariantError):
        vp.eval_accel(pvtol, np.array([1.0, np.nan, 0.0]), np.zeros(3), u)
    with pytest.raises(vp.ModelInvariantError):
        vp.eval_accel(pvtol, np.zeros(3), np.zeros(2), u)
    with pytest.raises(vp.ModelInvariantError):
        vp.eval_accel(pvtol, np.zeros((2, 2)), np.zeros((2, 2)), u)


def test_inverse_input_round_trip(pvtol):
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, 3)
        qd = rng.uniform(-1.0, 1.0, 3)
        u = rng.uniform(-2.0, 2.0, 2)
        qdd = vp.eval_accel(pvtol, q, qd, u)
        u_rec, residual = vp.inverse_input(pvtol, q, qd, qdd)
        assert np.abs(u_rec - u).max() < 1e-12
        assert residual < 1e-13


def test_inverse_input_residual_is_unactuated_component(pvtol):
    q = np.array([0.0, 0.0, 0.5])
    qd = np.zeros(3)
    # Force the acceleration off the actuated subspace by a known amount.
    w = vp.left_annihilator(pvtol, q)
    qdd = vp.eval_accel(pvtol, q, qd, np.array([1.0, 0.2])) + 0.3 * w
    _, residual = vp.inverse_input(pvtol, q, qd, qdd)
    assert abs(residual - 0.3) < 1e-12


def test_reference_initial_conditions_and_rest_points():
    q, qd, u = vp.tic_toc_reference(0.0)
    assert np.abs(q - [0.0, 0.0, 0.5 * math.pi]).max() < 1e-15
    assert np.abs(qd - [1.0, 0.0, -2.0]).max() < 1e-15
    assert np.abs(u).max() < 1e-15
    for t in (-0.5 * math.pi, 0.5 * math.pi):
        _, qd, _ = vp.tic_toc_reference(t)
        assert np.abs(qd).max() < 1e-15


def test_reference_thrust_profile():
    # u1 = sin(t) sqrt(4 sin^2 t + 1) along the maneuver.
    for t in np.linspace(0.0, 2.0 * math.pi, 50):
        _, _, u = vp.tic_toc_reference(float(t))
        s = math.sin(t)
        assert abs(u[0] - s * math.sqrt(4.0 * s * s + 1.0)) < 1e-13


def test_reference_satisfies_dynamics(pvtol):
    # qddot from the closed form must equal B(q) u - G at every sample.
    for t in np.linspace(-math.pi, math.pi, 200):
        q, _, u = vp.tic_toc_reference(float(t))
        qdd = vp.tic_toc_acceleration(float(t))
        rhs = pvtol.input_map(q) @ u - pvtol.gravity(q)
        assert np.abs(qdd - rhs).max() < 1e-12


def test_reference_acceleration_is_velocity_derivative():
    h = 1e-6
    for t in np.linspace(-2.0, 2.0, 25):
        _, qd_p, _ = vp.tic_toc_reference(float(t) + h)
        _, qd_m, _ = vp.tic_toc_reference(float(t) - h)
        fd = (qd_p - qd_m) / (2.0 * h)
        assert np.abs(fd - vp.tic_toc_acceleration(float(t))).max() < 1e-8
