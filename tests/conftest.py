import math
import time

import numpy as np
import pytest

import vhcplan as vp
from vhcplan.numdiff import central_derivative


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def pvtol():
    return vp.pvtol_model()


@pytest.fixture(scope="session")
def tictoc_model(pvtol):
    return vp.reduce(pvtol, vp.tic_toc_vhc(), (-2.0, 2.0))


@pytest.fixture(scope="session")
def tictoc_report(tictoc_model):
    return vp.check_theorem1(tictoc_model)


@pytest.fixture(scope="session")
def tictoc_solution(tictoc_model, tictoc_report):
    return vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def moving_solution(tictoc_model, tictoc_report):
    """sin t on [asin(-0.6), asin(0.6)]: the endpoints move, so no periodic orbit."""
    return vp.solve_boundary(tictoc_model, tictoc_report, -0.6, 0.8, 0.6, 0.8)


@pytest.fixture(scope="session")
def tictoc_periodic(tictoc_solution):
    return vp.make_periodic(tictoc_solution)


@pytest.fixture(scope="session")
def tictoc_trajectory(pvtol, tictoc_model, tictoc_periodic):
    return vp.lift(tictoc_model.vhc, tictoc_periodic, pvtol)


@pytest.fixture(scope="session")
def tictoc_chart():
    return vp.TicTocChart()


@pytest.fixture(scope="session")
def tictoc_ltv(pvtol, tictoc_trajectory, tictoc_chart, timings):
    start = time.perf_counter()
    ltv = vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=512)
    timings["linearize_512"] = time.perf_counter() - start
    return ltv


@pytest.fixture(scope="session")
def tictoc_gramian(tictoc_ltv, timings):
    start = time.perf_counter()
    W = vp.gramian(tictoc_ltv)
    timings["gramian"] = time.perf_counter() - start
    return W


@pytest.fixture(scope="session")
def tictoc_gains(tictoc_ltv):
    return vp.periodic_lqr(tictoc_ltv)


@pytest.fixture(scope="session")
def reference_orbit():
    return vp.tic_toc_orbit()


@pytest.fixture(scope="session")
def sim_result(pvtol, tictoc_chart, tictoc_gains, timings):
    start = time.perf_counter()
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains,
                             np.array([0.1, -0.5, 0.0]), np.zeros(3))
    timings["simulation"] = time.perf_counter() - start
    return res


@pytest.fixture(scope="session")
def family_pack(pvtol):
    """Full pipeline for the constraint family at psi_s = pi/2 (coarse grid)."""
    params = vp.find_family_parameters(0.5 * math.pi)
    model = vp.family_reduced(params.psi_s, params.k1, params.k2, params.k3,
                              params.interval)
    report = vp.check_theorem1(model)
    tmax = params.interval[1]
    sol = vp.solve_boundary(model, report, -0.8 * tmax, 0.0, 0.8 * tmax, 0.0)
    per = vp.make_periodic(sol)
    traj = vp.lift(model.vhc, per, pvtol)
    chart = vp.FamilyChart(traj)
    ltv = vp.linearize(chart, pvtol, traj, n_grid=96)
    return {"params": params, "model": model, "report": report, "sol": sol,
            "per": per, "traj": traj, "chart": chart, "ltv": ltv}


def _chart_points(chart, rng, k, radius):
    """k points of the chart at uniform phases and rho uniform in a box inside the tube."""
    tau = rng.uniform(-math.pi, math.pi, 4 * k)
    rho = rng.uniform(-radius, radius, (4 * k, 5))
    inside = np.linalg.norm(rho, axis=1) <= chart.tube_radius
    return tau[inside][:k], rho[inside][:k]


def _check_round_trip(chart, rng, k):
    taus, rhos = _chart_points(chart, rng, k, 0.4)
    for tau, rho in zip(taus, rhos):
        q, qd = vp.chart_invert(chart, tau, rho)
        tau_b, rho_b = chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau_b - tau)) < 1e-10
        assert np.abs(rho_b - rho).max() < 1e-10
    # One point given as lists, as the closed loop passes it, and the reference
    # input at one float against their batch rows.
    q, qd = vp.chart_invert(chart, taus, rhos)
    tau_b, rho_b = chart.forward(q, qd)
    u_b = chart.reference_input(tau_b)
    singles = [chart.forward(a.tolist(), b.tolist()) for a, b in zip(q, qd)]
    u = [chart.reference_input(float(t)) for t in tau_b]
    for gap, rows in ((vp.wrap_angle(np.array([s[0] for s in singles]) - tau_b), tau_b),
                      (np.array([s[1] for s in singles]) - rho_b, rho_b),
                      (np.array(u) - u_b, u_b)):
        assert np.abs(gap).max() <= 1e-13 * np.abs(rows).max()


def _check_rates(chart, rng, k, tol):
    # At each point, with a random q'', against central differences of `forward`
    # along the motion: forward(q +- h q', q' +- h q'').
    h = 1e-7
    for tau, rho in zip(*_chart_points(chart, rng, k, 0.4)):
        q, qd = chart.invert_guess(tau, rho)
        qdd = rng.uniform(-1.0, 1.0, 3)
        rates = chart.forward_rates(q, qd, qdd)[2]
        tp, rp = chart.forward(q + h * qd, qd + h * qdd)
        tm, rm = chart.forward(q - h * qd, qd - h * qdd)
        fd = np.concatenate([[vp.wrap_angle(tp - tm)], rp - rm]) / (2.0 * h)
        assert np.abs(rates - fd).max() < tol


@pytest.fixture(scope="session")
def check_round_trip():
    """`check_round_trip(chart, rng, k)`: k points in the tube come back through
    `chart_invert` and `forward` within 1e-10, and one point's `forward` on
    lists and `reference_input` at one float match their batch rows within
    1e-13 of the rows' largest entry."""
    return _check_round_trip


@pytest.fixture(scope="session")
def check_rates():
    """`check_rates(chart, rng, k, tol)`: `forward_rates` at k points in the tube
    agrees with central differences of `forward` along the motion within tol."""
    return _check_rates


@pytest.fixture(scope="session")
def family_gains(family_pack):
    return vp.periodic_lqr(family_pack["ltv"])


def _linearize_by_chart_invert(chart, sys, n_grid):
    """A and B as `linearize` builds them at every grid node, with no mirror: f(0)
    and B from the points 0 and h e_j in w through `chart_invert`, `reference_input`
    and `forward_rates`, B by `linearize`'s input rule, the one-sided slope at h e_j
    times the ratio of taudot; A by the complex step, Im f(i s e_j)/s, from
    `invert_guess`, the model's closed-form `accel` and `forward_rates` at the
    node's tau."""
    n_rho, n_w = 5, sys.n - 1
    h, s = vp.numdiff.DIFF_STEP, vp.transverse.COMPLEX_STEP
    taus = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    u_star = chart.reference_input(taus)

    points = np.c_[np.zeros((n_w + 1, n_rho)), np.r_[np.zeros((1, n_w)), h * np.eye(n_w)]]
    tau = np.repeat(taus, len(points))
    q, qd = vp.chart_invert(chart, tau, np.tile(points[:, :n_rho], (n_grid, 1)))
    u = u_star[:, None, :] + points[:, n_rho:]
    rates = chart.forward_rates(q, qd, vp.eval_accel(sys, q, qd, u.reshape(-1, n_w)))[2]
    f = (rates[:, 1:] / rates[:, 0][:, None]).reshape(n_grid, len(points), n_rho)
    f, taudot = f.transpose(0, 2, 1), rates[:, 0].reshape(n_grid, 1, len(points))
    B = (f[..., 1:] - f[..., :1]) / h * taudot[..., 1:] / taudot[..., :1]

    tau = np.repeat(taus, n_rho)
    q, qd = chart.invert_guess(tau, np.tile(1j * s * np.eye(n_rho), (n_grid, 1)))
    rates = chart.forward_rates(q, qd, sys.accel(q, qd, np.repeat(u_star, n_rho, 0)), tau)[2]
    f = rates[:, 1:] / rates[:, :1]
    return (f.imag / s).reshape(n_grid, n_rho, n_rho).transpose(0, 2, 1), B


@pytest.fixture(scope="session")
def linearize_by_chart_invert():
    """`linearize_by_chart_invert(chart, sys, n_grid)`: A and B at every grid node,
    computed in full, as a reference for `linearize`'s mirror fill."""
    return _linearize_by_chart_invert


def _check_mirror(chart, sys, ltv):
    """`ltv` (from `linearize` on a grid of n % 4 == 0 nodes) against the full-grid
    reference: its Floquet moduli, open and closed loop, within 1e-10 relative,
    its Gramian eigenvalues within 1e-10 of the largest and K within 1e-9 of
    max|K|. The reference is not bit symmetric, so its period integrals take
    the whole period."""
    assert ltv.reversal_gap <= vp.transverse.REVERSAL_TOL
    A, B = _linearize_by_chart_invert(chart, sys, ltv.taus.size)
    full = vp.LtvModel(taus=ltv.taus, A=A, B=B, f0_max=0.0)
    assert vp.transverse._mirror_signs(ltv) is not None
    assert vp.transverse._mirror_signs(full) is None
    gains, full_gains = vp.periodic_lqr(ltv), vp.periodic_lqr(full)
    for ours, theirs in ((vp.monodromy(ltv)[1], vp.monodromy(full)[1]),
                         (vp.monodromy(ltv, gains)[1], vp.monodromy(full, full_gains)[1])):
        moduli = np.sort(np.abs(theirs))
        assert np.max(np.abs(np.sort(np.abs(ours)) - moduli) / moduli) <= 1e-10
    w, w_full = (np.linalg.eigvalsh(vp.gramian(model)) for model in (ltv, full))
    assert np.abs(w - w_full).max() <= 1e-10 * w_full.max()
    assert np.abs(gains.K - full_gains.K).max() <= 1e-9 * np.abs(full_gains.K).max()


def _check_input_columns(chart, sys, traj, ltv):
    """B of `ltv` against the 4-point central stencil in w at every node within
    1e-9 of max|B|, and against `linearize` with ten times the step within 1e-10:
    the input rule holds for any step."""
    n_rho, n_w = ltv.A.shape[1], ltv.B.shape[2]
    q, qd = vp.chart_invert(chart, ltv.taus, np.zeros((ltv.taus.size, n_rho)))
    u_star = chart.reference_input(ltv.taus)

    def field(w):   # f at the input offsets w of each node, shape (nodes, n_rho, offsets)
        qs, qds = np.repeat(q, len(w), axis=0), np.repeat(qd, len(w), axis=0)
        qdd = vp.eval_accel(sys, qs, qds, (u_star[:, None, :] + w).reshape(-1, n_w))
        rates = chart.forward_rates(qs, qds, qdd)[2]
        f = (rates[:, 1:] / rates[:, :1]).reshape(ltv.taus.size, len(w), n_rho)
        return f.transpose(0, 2, 1)

    B = central_derivative(field, np.zeros(n_w))[1]
    assert np.abs(ltv.B - B).max() <= 1e-9 * np.abs(B).max()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vp.numdiff, "DIFF_STEP", 10.0 * vp.numdiff.DIFF_STEP)
        coarse = vp.linearize(chart, sys, traj, n_grid=ltv.taus.size)
    assert np.abs(coarse.B - ltv.B).max() <= 1e-10 * np.abs(ltv.B).max()


@pytest.fixture(scope="session")
def check_input_columns():
    """`check_input_columns(chart, sys, traj, ltv)`: `linearize`'s input columns
    match the old stencil's and do not depend on the step (`_check_input_columns`)."""
    return _check_input_columns


@pytest.fixture(scope="session")
def check_mirror():
    """`check_mirror(chart, sys, ltv)`: the mirrored linearization and its period
    integrals agree with those of the full grid (see `_check_mirror`)."""
    return _check_mirror
