"""Batched evaluators equal the same evaluators called one point at a time.

Also checked against single-point calls: the residual gate of `chart_invert`
and the stencil layout of `linearize`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vhcplan as vp

TOL = 1e-13
SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def _batch(k, width, lo, hi):
    shape = (k,) if width is None else (k, width)
    return arrays(float, shape, elements=st.floats(lo, hi, allow_nan=False))


@st.composite
def chart_coordinates(draw, radius=0.3):
    """k phase values on [-pi, pi) and transverse points in a box of half-width radius."""
    k = draw(st.integers(1, 6))
    return draw(_batch(k, None, -math.pi, math.pi)), draw(_batch(k, 5, -radius, radius))


def _close(batched, singles):
    return np.abs(np.asarray(batched) - np.asarray(singles)).max() <= TOL


def _check_chart(chart, tau, rho):
    q, qd = chart.invert_guess(tau, rho)
    guesses = [chart.invert_guess(t, r) for t, r in zip(tau, rho)]
    assert _close(q, [g[0] for g in guesses]) and _close(qd, [g[1] for g in guesses])

    tau_b, rho_b = chart.forward(q, qd)
    singles = [chart.forward(a, b) for a, b in zip(q, qd)]
    assert _close(tau_b, [s[0] for s in singles]) and _close(rho_b, [s[1] for s in singles])
    assert _close(chart.jacobian(q, qd), [chart.jacobian(a, b) for a, b in zip(q, qd)])
    assert _close(chart.reference_input(tau), [chart.reference_input(t) for t in tau])


@SETTINGS
@given(chart_coordinates())
def test_tictoc_chart_batch(tictoc_chart, coords):
    _check_chart(tictoc_chart, *coords)


@SETTINGS
@given(chart_coordinates())
def test_family_chart_batch(family_pack, coords):
    _check_chart(family_pack["chart"], *coords)


def coupled_model(coupling: float = 1.0) -> vp.MechanicalSystem:
    """PVTOL inputs on the mass matrix [[2, c cos psi, 0], [c cos psi, 2, 0], [0, 0, 1]].

    M depends on q, so a batch gets a stack of mass matrices (PVTOL's M is one
    shared identity). C holds the Christoffel terms of this M. M is positive
    definite for |c| < 2 and loses definiteness where |c cos psi| > 2.
    """
    pvtol = vp.pvtol_model()

    def mass_matrix(q):
        c = coupling * np.cos(q.T[2])
        M = np.zeros(np.shape(c) + (3, 3))
        M[..., 0, 0] = M[..., 1, 1] = 2.0
        M[..., 0, 1] = M[..., 1, 0] = c
        M[..., 2, 2] = 1.0
        return M

    def coriolis(q, qd):
        s = -0.5 * coupling * np.sin(q.T[2])
        xd, zd, psid = qd.T
        C = np.zeros(np.shape(s) + (3, 3))
        C[..., 0, 1] = C[..., 1, 0] = s * psid
        C[..., 0, 2], C[..., 2, 0] = s * zd, -s * zd
        C[..., 1, 2], C[..., 2, 1] = s * xd, -s * xd
        return C

    return vp.MechanicalSystem(n=3, mass_matrix=mass_matrix, coriolis=coriolis,
                               gravity=pvtol.gravity, input_map=pvtol.input_map,
                               annihilator=pvtol.annihilator, name="coupled")


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    _batch(k, 3, -2.0, 2.0), _batch(k, 3, -2.0, 2.0), _batch(k, 2, -3.0, 3.0))))
def test_model_batch(pvtol, points):
    q, qd, u = points
    qdd = vp.eval_accel(pvtol, q, qd, u)
    assert _close(qdd, [vp.eval_accel(pvtol, *p) for p in zip(q, qd, u)])
    u_b, res_b = vp.inverse_input(pvtol, q, qd, qdd + 0.1)
    singles = [vp.inverse_input(pvtol, *p) for p in zip(q, qd, qdd + 0.1)]
    assert _close(u_b, [s[0] for s in singles]) and _close(res_b, [s[1] for s in singles])


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    _batch(k, 3, -2.0, 2.0), _batch(k, 3, -2.0, 2.0), _batch(k, 2, -3.0, 3.0))))
def test_stacked_mass_matrix_batch(points):
    # A stack of mass matrices takes one factorization per point; a single
    # point has one matrix and takes the posv route.
    model = coupled_model()
    q, qd, u = points
    assert model.mass_matrix(q).shape == (q.shape[0], 3, 3)
    qdd = vp.eval_accel(model, q, qd, u)
    assert _close(qdd, [vp.eval_accel(model, *p) for p in zip(q, qd, u)])
    for qi, qdi, ui, qddi in zip(q, qd, u, qdd):
        force = model.mass_matrix(qi) @ qddi + model.coriolis(qi, qdi) @ qdi + model.gravity(qi)
        assert np.abs(force - model.input_map(qi) @ ui).max() < 1e-12


def test_generic_reduction_rejects_degenerate_slope():
    # Without coupling the model is PVTOL, and (k1, k2, k3) = (0.25, 1, -0.25)
    # zeroes alpha'(0) = k1 k2 + k3: the generic projection's slope is noise.
    model = coupled_model(0.0)
    vhc = vp.family_vhc(model, np.array([0.0, 0.0, 0.5 * math.pi]), 0.25, 1.0, -0.25,
                        domain=(-0.2, 0.2))
    rep = vp.check_theorem1(vp.reduce(model, vhc))
    assert rep.flags["unique_zero"] and not rep.flags["slope_positive"]
    assert rep.slope_margin < 1.0


def test_model_batch_rejects_one_non_spd_mass_matrix():
    model = coupled_model(coupling=3.0)
    q = np.array([[0.0, 0.0, 0.5 * math.pi], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    u = np.zeros((3, 2))
    vp.eval_accel(model, q[:2], np.zeros((2, 3)), u[:2])
    with pytest.raises(vp.ModelInvariantError):
        vp.eval_accel(model, q, np.zeros((3, 3)), u)


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda k: _batch(k, None, -0.5, 0.5)))
def test_vhc_batch(family_pack, thetas):
    for vhc in (vp.tic_toc_vhc(), family_pack["model"].vhc):
        for curve in (vhc.phi, vhc.dphi, vhc.ddphi):
            assert _close(curve(thetas), [curve(th) for th in thetas])


@pytest.mark.parametrize("which", ["tictoc", "family"])
@SETTINGS
@given(st.integers(1, 6).flatmap(lambda k: _batch(k, None, -0.19, 0.19)))
def test_reduced_model_batch(which, tictoc_model, family_pack, thetas):
    model = tictoc_model if which == "tictoc" else family_pack["model"]
    batched = model.coefficients(thetas)
    assert batched.shape == (3, thetas.size)
    assert _close(batched, np.column_stack([model.coefficients(th) for th in thetas]))


@pytest.mark.parametrize("which", ["tictoc", "family"])
@SETTINGS
@given(st.integers(1, 6).flatmap(lambda k: _batch(k, None, -10.0, 10.0)))
def test_periodic_spline_batch(which, tictoc_ltv, tictoc_gains, family_pack, family_gains,
                               taus):
    ltv, gains = ((tictoc_ltv, tictoc_gains) if which == "tictoc"
                  else (family_pack["ltv"], family_gains))
    n, m = ltv.B.shape[1:]
    for evaluate, shape in ((ltv.a_of, (n, n)), (ltv.b_of, (n, m)), (gains.k_of, (m, n))):
        batched = evaluate(taus)
        assert batched.shape == (taus.size,) + shape
        assert _close(batched, [evaluate(float(t)) for t in taus])


def _special_times(per):
    """Times in the series bridge, at the mirror point, in the mirrored half and across wraps."""
    base = per.base
    bridge = [0.0, 1e-8, -1e-8]
    mirror = [base.t2, 2.0 * base.t2, 2.0 * base.t2 + 1e-8, base.t2 + 0.3]
    wraps = [per.t0, per.t0 + per.period, per.t0 - 0.4, per.t0 + 2.0 * per.period + 0.1]
    return np.array(bridge + mirror + wraps)


@pytest.mark.parametrize("which", ["tictoc", "family"])
@SETTINGS
@given(st.integers(0, 6).flatmap(lambda k: _batch(k, None, -20.0, 20.0)))
def test_scalar_solution_batch(which, tictoc_periodic, family_pack, times):
    per = tictoc_periodic if which == "tictoc" else family_pack["per"]
    t = np.concatenate([_special_times(per), times])
    batched = per.eval(t)
    singles = np.array([per.eval(float(s)) for s in t])
    for i in range(3):
        assert batched[i].shape == t.shape
        assert np.array_equal(batched[i], singles[:, i])


def test_scalar_solution_batch_rejects_times_outside_window(tictoc_solution):
    with pytest.raises(vp.DomainError):
        tictoc_solution.eval(np.array([0.0, tictoc_solution.t2 + 0.5]))


@pytest.mark.parametrize("which", ["tictoc", "family"])
def test_chart_invert_batch_rejects_one_point_outside_tube(which, tictoc_chart, family_pack):
    chart = tictoc_chart if which == "tictoc" else family_pack["chart"]
    rho = np.zeros((4, 5))
    rho[2, 0] = 1.5 * chart.tube_radius
    with pytest.raises(vp.OutsideTubeError):
        vp.chart_invert(chart, np.linspace(-1.0, 1.0, 4), rho)


class _OffsetGuess:
    """Chart whose closed-form inverse is off by 1e-4 in q."""

    def __init__(self, chart):
        self._chart = chart

    def invert_guess(self, tau, rho):
        q, qd = self._chart.invert_guess(tau, rho)
        return q + 1e-4, qd

    def __getattr__(self, name):
        return getattr(self._chart, name)


@pytest.mark.parametrize("which", ["tictoc", "family"])
def test_chart_invert_rejects_inexact_inverse(which, tictoc_chart, family_pack):
    chart = _OffsetGuess(tictoc_chart if which == "tictoc" else family_pack["chart"])
    rng = np.random.default_rng(31)
    tau = rng.uniform(-math.pi, math.pi, 12)
    rho = rng.uniform(-0.3, 0.3, (12, 5))
    for t, r in [(tau, rho), (float(tau[0]), rho[0])]:
        with pytest.raises(vp.OutsideTubeError, match="misses its coordinates"):
            vp.chart_invert(chart, t, r)


def _stencil_free_columns(chart, sys, tau, rho_step=1e-5, w_step=1e-4):
    """A(tau), B(tau) by plain central differences of single-point calls."""
    def f(rho, w):
        q, qd = vp.chart_invert(chart, tau, rho)
        qdd = vp.eval_accel(sys, q, qd, chart.reference_input(tau) + w)
        rates = chart.jacobian(q, qd) @ np.concatenate([qd, qdd])
        return rates[1:] / rates[0]

    def column(j, h, n):
        e = np.zeros(n)
        e[j] = h
        if n == 5:
            return (f(e, np.zeros(2)) - f(-e, np.zeros(2))) / (2.0 * h)
        return (f(np.zeros(5), e) - f(np.zeros(5), -e)) / (2.0 * h)

    A = np.column_stack([column(j, rho_step, 5) for j in range(5)])
    B = np.column_stack([column(j, w_step, 2) for j in range(2)])
    return A, B


@pytest.mark.parametrize("which", ["tictoc", "family"])
def test_linearize_columns_match_single_point_differences(which, pvtol, tictoc_chart,
                                                          tictoc_ltv, family_pack):
    chart, ltv = ((tictoc_chart, tictoc_ltv) if which == "tictoc"
                  else (family_pack["chart"], family_pack["ltv"]))
    for i in np.linspace(0, ltv.taus.size, 8, endpoint=False).astype(int):
        A, B = _stencil_free_columns(chart, pvtol, float(ltv.taus[i]))
        assert np.abs(A - ltv.A[i]).max() <= 1e-6 * np.abs(ltv.A[i]).max()
        assert np.abs(B - ltv.B[i]).max() <= 1e-6 * np.abs(ltv.B[i]).max()
