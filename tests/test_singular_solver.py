import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import vhcplan as vp
from vhcplan.singular_solver import ODE_TOL, RHS_BUDGET, XI_CUT, rk45_sweep


def test_singular_acceleration_tictoc_vanishes(tictoc_model, tictoc_report):
    assert abs(vp.singular_acceleration(tictoc_model, tictoc_report)) < 1e-9


def test_singular_acceleration_family_closed_form():
    # For alpha = k1 sin(k2 th) + k3 th cos(k2 th), beta = k3 cos(k2 th),
    # gamma = sin(psi_s + k2 th), the crossing acceleration is
    # -(beta' v_s^2 + gamma') / (alpha' + 2 beta) = sqrt(2) at psi_s = pi/4,
    # (k1, k2, k3) = (1, 2, -1): beta'(0) = 0, gamma'(0) = 2 cos(pi/4),
    # alpha'(0) + 2 beta(0) = 3 - 2 - 2 = -1.
    model = vp.family_reduced(0.25 * math.pi, 1.0, 2.0, -1.0, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    a_s = vp.singular_acceleration(model, rep)
    assert abs(a_s - math.sqrt(2.0)) < 1e-6


def test_singular_acceleration_agrees_with_coarser_derivative_step():
    # Independent derivative oracle: plain central differences at two step
    # sizes bracket the same value.
    model = vp.family_reduced(0.25 * math.pi, 1.0, 2.0, -1.0, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    a_s = vp.singular_acceleration(model, rep)
    th, v2 = rep.theta_s, rep.v_s ** 2
    for h in (1e-5, 1e-6):
        da, db, dg = (model.coefficients(th + h) - model.coefficients(th - h)) / (2 * h)
        crude = -(db * v2 + dg) / (da + 2.0 * float(model.coefficients(th)[1]))
        assert abs(a_s - crude) < 1e-5


def test_singular_acceleration_requires_passing_report():
    model = vp.family_reduced(0.25 * math.pi, 1.0, 2.0, 1.0, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    with pytest.raises(vp.ConditionCheckError):
        vp.singular_acceleration(model, rep)


def test_solution_matches_sine(tictoc_solution):
    sol = tictoc_solution
    assert abs(sol.t1 + 0.5 * math.pi) < 1e-9
    assert abs(sol.t2 - 0.5 * math.pi) < 1e-9
    assert sol.v_s == 1.0 and abs(sol.a_s) < 1e-9
    for t in np.linspace(sol.t1, sol.t2, 401):
        th, dth, ddth = sol.eval(float(t))
        assert abs(th - math.sin(t)) < 1e-9
        assert abs(dth - math.cos(t)) < 1e-8
        assert abs(ddth + math.sin(t)) < 1e-7


def test_solution_near_crossing_uses_series(tictoc_solution):
    # Inside the cut the series representation takes over; it must stay
    # consistent with sin(t) and be continuous across the cut boundary.
    for t in (-1e-7, 0.0, 1e-7, 9e-7, 1.1e-6):
        th, dth, _ = tictoc_solution.eval(t)
        assert abs(th - math.sin(t)) < 1e-10
        assert abs(dth - math.cos(t)) < 1e-8


def test_asymmetric_boundary_piecewise_closed_form(tictoc_model, tictoc_report):
    # theta_i sin(t / theta_i) on each side: sin t left, 2 sin(t/2) right.
    sol = vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 2.0, 0.0)
    assert abs(sol.t1 + 0.5 * math.pi) < 1e-9
    assert abs(sol.t2 - math.pi) < 1e-9
    for t in np.linspace(sol.t1, sol.t2, 301):
        th, _, _ = sol.eval(float(t))
        ref = math.sin(t) if t <= 0.0 else 2.0 * math.sin(0.5 * t)
        assert abs(th - ref) < 1e-9


def test_moving_boundary_velocities(tictoc_model, tictoc_report):
    # Nonzero endpoint speeds: sin(t) restricted to a smaller window.
    th1, th2 = -0.6, 0.8
    sol = vp.solve_boundary(tictoc_model, tictoc_report, th1,
                            math.sqrt(1.0 - th1 ** 2), th2, math.sqrt(1.0 - th2 ** 2))
    assert abs(sol.t1 - math.asin(th1)) < 1e-9
    assert abs(sol.t2 - math.asin(th2)) < 1e-9
    for t in np.linspace(sol.t1, sol.t2, 101):
        th, _, _ = sol.eval(float(t))
        assert abs(th - math.sin(t)) < 1e-9


def test_solve_boundary_validation(tictoc_model, tictoc_report):
    with pytest.raises(vp.DomainError):
        vp.solve_boundary(tictoc_model, tictoc_report, 0.5, 0.0, 1.0, 0.0)
    with pytest.raises(vp.DomainError):
        vp.solve_boundary(tictoc_model, tictoc_report, -1.0, -0.1, 1.0, 0.0)
    with pytest.raises(vp.DomainError):
        vp.solve_boundary(tictoc_model, tictoc_report, -3.0, 0.0, 1.0, 0.0)
    with pytest.raises(vp.DomainError):
        vp.solve_boundary(tictoc_model, tictoc_report, -1e-6, 0.0, 1.0, 0.0)


def test_solve_boundary_requires_passing_report():
    model = vp.family_reduced(0.25 * math.pi, 1.0, 2.0, 1.0, (-0.3, 0.3))
    rep = vp.check_theorem1(model)
    with pytest.raises(vp.ConditionCheckError):
        vp.solve_boundary(model, rep, -0.2, 0.0, 0.2, 0.0)


def test_unreachable_boundary_reports_diagnostics(tictoc_model, tictoc_report):
    with pytest.raises(vp.BoundaryUnreachableError) as exc:
        vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 1.0, 0.0,
                          t_max=0.5)
    diagnostics = exc.value.diagnostics
    assert diagnostics["side"] == "left"
    assert diagnostics["time"] == 0.5           # the last step is clamped to t_max
    assert diagnostics["final_state"][0] < -XI_CUT
    assert 0 < diagnostics["rhs_evals"] < RHS_BUDGET
    with pytest.raises(vp.BoundaryUnreachableError) as exc:     # no time to integrate
        vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 1.0, 0.0, t_max=0.0)
    assert exc.value.diagnostics == {"side": "left", "final_state": [-1.0, 0.0], "time": 0.0,
                                     "rhs_evals": 1}


def test_nan_right_hand_side_stops_promptly(tictoc_model, tictoc_report):
    # theta'' is NaN on (-0.6, -0.4): every step's error norm is NaN, the step
    # shrinks fivefold per try below its 10-ulp minimum, and the sweep stops.
    def coefficients(th):
        if th <= -0.6 or th >= -0.4:
            return tictoc_model.coefficients(th)
        return np.full(3, np.nan)
    model = dataclasses.replace(tictoc_model, coefficients=coefficients)
    start = time.perf_counter()
    with pytest.raises(vp.BoundaryUnreachableError) as exc:
        vp.solve_boundary(model, tictoc_report, -1.0, 0.0, 1.0, 0.0)
    assert time.perf_counter() - start < 5.0
    diagnostics = exc.value.diagnostics
    assert diagnostics["side"] == "left"
    assert diagnostics["rhs_evals"] < 1000
    assert -1.0 < diagnostics["final_state"][0] <= -0.6


def test_degenerate_crossing_stops_at_the_rhs_budget():
    # A report forced to pass at a triple zero of alpha: the sweep creeps
    # toward the cut without reaching it, and must stop at its budget.
    model = vp.family_reduced(0.5 * math.pi, 0.25, 3.0, -0.75, (-0.2, 0.2))
    forced = dataclasses.replace(vp.check_theorem1(model), overall=True)
    start = time.perf_counter()
    with pytest.raises(vp.BoundaryUnreachableError) as exc:
        vp.solve_boundary(model, forced, -0.16, 0.0, 0.16, 0.0)
    assert time.perf_counter() - start < 20.0
    diagnostics = exc.value.diagnostics
    assert diagnostics["side"] == "left"
    assert diagnostics["rhs_evals"] == RHS_BUDGET + 1
    assert len(diagnostics["final_state"]) == 2
    assert "left" in str(exc.value) and str(RHS_BUDGET) in str(exc.value)


def test_eval_outside_window_raises(tictoc_solution):
    with pytest.raises(vp.DomainError):
        tictoc_solution.eval(tictoc_solution.t2 + 0.5)


def test_make_periodic_requires_rest_endpoints(tictoc_model, tictoc_report):
    sol = vp.solve_boundary(tictoc_model, tictoc_report, -0.6, 0.8, 0.6, 0.8)
    with pytest.raises(vp.ConditionCheckError):
        vp.make_periodic(sol)


def test_periodic_solution_wraps_and_mirrors(tictoc_periodic):
    per = tictoc_periodic
    assert abs(per.period - 2.0 * math.pi) < 1e-9
    for t in (-1.0, 0.3, 2.0):
        base = per.eval(t)
        for k in (-2, 1, 3):
            shifted = per.eval(t + k * per.period)
            assert abs(shifted[0] - base[0]) < 1e-9
            assert abs(shifted[1] - base[1]) < 1e-9
    # Mirrored half runs the same positions backwards.
    th_f, dth_f, _ = per.eval(0.4)
    th_b, dth_b, _ = per.eval(2.0 * 0.5 * math.pi - 0.4 + per.period)
    assert abs(th_f - th_b) < 1e-9
    assert abs(dth_f + dth_b) < 1e-9


def test_periodic_crossings(tictoc_periodic):
    (t_a, v_a, a_a), (t_b, v_b, a_b) = tictoc_periodic.crossings
    assert abs(t_a) < 1e-9
    assert abs(t_b - math.pi) < 1e-9
    assert v_a == 1.0 and v_b == -1.0
    assert abs(a_a) < 1e-9 and abs(a_b) < 1e-9


def test_lift_matches_reference(tictoc_trajectory):
    traj = tictoc_trajectory
    assert float(traj.residuals.max()) < 1e-8
    for i in range(0, traj.t.size, 57):
        t = float(traj.t[i])
        q_ref, qd_ref, u_ref = vp.tic_toc_reference(t)
        assert np.abs(traj.q[i] - q_ref).max() < 1e-8
        assert np.abs(traj.qdot[i] - qd_ref).max() < 1e-8
        assert np.abs(traj.u[i] - u_ref).max() < 1e-6


def test_lift_state_interpolation(tictoc_trajectory):
    for t in (-1.2, 0.0, 0.7, 3.9):
        q, qd = tictoc_trajectory.state_at(t)
        q_ref, qd_ref, _ = vp.tic_toc_reference(t)
        assert np.abs(q - q_ref).max() < 1e-8
        assert np.abs(qd - qd_ref).max() < 1e-8
        q2, qd2, qdd, u = tictoc_trajectory.full_state_at(t)
        assert np.array_equal(q, q2) and np.array_equal(qd, qd2)
        assert np.abs(qdd - vp.tic_toc_acceleration(t)).max() < 1e-6


def test_lift_closure_check_sees_a_perturbed_mirror_half(tictoc_model, tictoc_periodic):
    # theta is raised by 1e-5 on the mirror half after its crossing, so the
    # end of the period no longer meets its start; the reduced equation still
    # holds there, so only the closure check can see it.
    per = tictoc_periodic
    base = per.base

    def table(t):
        values = base.table(t)
        late = per.t0 + (np.asarray(t) - per.t0) % per.period > 2.0 * base.t2 + 1e-3
        return values + 1e-5 * late[..., None] * np.array([1.0, 0.0, 0.0, 0.0])

    bad = dataclasses.replace(per, base=dataclasses.replace(base, table=table))
    with pytest.raises(vp.ConvergenceError, match="closure"):
        vp.lift(tictoc_model.vhc, bad, vp.pvtol_model(), n_samples=512)


def test_time_reversal_symmetry(tictoc_periodic):
    # theta(2 t2 - t) = theta(t), thetadot(2 t2 - t) = -thetadot(t).
    per = tictoc_periodic
    t2 = 0.5 * math.pi
    for t in np.linspace(-1.4, 1.4, 29):
        th, dth, ddth = per.eval(float(t))
        th_r, dth_r, ddth_r = per.eval(2.0 * t2 - float(t))
        assert abs(th - th_r) < 1e-9
        assert abs(dth + dth_r) < 1e-9
        assert abs(ddth - ddth_r) < 1e-7


@pytest.fixture(params=["tictoc", "family"])
def orbit(request, tictoc_model, tictoc_report, tictoc_periodic, family_pack):
    """(model, theta_s, boundary positions, periodic solution) of one orbit."""
    if request.param == "tictoc":
        return tictoc_model, tictoc_report.theta_s, (-1.0, 1.0), tictoc_periodic
    tmax = family_pack["params"].interval[1]
    return (family_pack["model"], family_pack["report"].theta_s, (-0.8 * tmax, 0.8 * tmax),
            family_pack["per"])


def test_table_matches_independent_dense_output(orbit):
    # Each side again through solve_ivp with the solver's settings, its dense
    # output read by scipy: the table must reproduce it on both halves.
    model, th_s, (theta1, theta2), per = orbit
    sol = per.base

    def rhs(t, y):
        alpha, beta, gamma = model.coefficients(y[0])
        return [y[1], -(beta * y[1] * y[1] + gamma) / alpha]

    for theta, target, span, origin in ((theta1, th_s - 1e-6, (0.0, 1e3), sol.t1),
                                        (theta2, th_s + 1e-6, (0.0, -1e3), sol.t2)):
        def cut(t, y):
            return y[0] - target
        cut.terminal = True
        ref = solve_ivp(rhs, span, [theta, 0.0], method="RK45", rtol=1e-10, atol=1e-10,
                        dense_output=True, events=[cut])
        s = np.linspace(0.0, 0.999 * ref.t_events[0][0], 2001)   # away from the bridge
        th_ref, dth_ref = ref.sol(s)
        th, dth, _ = per.eval(origin + s)
        assert np.abs(th - th_ref).max() < 1e-13 and np.abs(dth - dth_ref).max() < 1e-13
        th, dth, _ = per.eval(2.0 * sol.t2 - origin - s)          # mirror half
        assert np.abs(th - th_ref).max() < 1e-13 and np.abs(dth + dth_ref).max() < 1e-13


def test_table_is_continuous_at_its_breaks(orbit):
    # theta and theta' are continuous where one quartic meets the next; where
    # the bridge meets a side, the series and the integrated side differ a little.
    # Each jump is read 1e-10 to either side of a break, less the slope's share.
    _, _, _, per = orbit
    breaks = per.base.table.breaks
    assert np.diff(breaks).min() > 1e-8
    eps = 1e-10
    after, before = per.eval(breaks[1:-1] + eps), per.eval(breaks[1:-1] - eps)
    jumps = np.abs([after[0] - before[0] - eps * (after[1] + before[1]),
                    after[1] - before[1] - eps * (after[2] + before[2])]).T
    in_bridge = per.base.table(0.5 * (breaks[:-1] + breaks[1:]))[:, 2]
    joints = np.diff(in_bridge) != 0.0
    assert joints.sum() == 4            # both ends of the bridge and of its mirror image
    assert jumps[~joints].max() < 1e-13
    print(f"bridge joint jumps: theta {jumps[joints, 0].max():.2e}, "
          f"theta' {jumps[joints, 1].max():.2e}")
    assert jumps[joints].max() < 1e-9


def test_eval_at_the_crossings_raises_no_warning(orbit):
    _, th_s, _, per = orbit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.0, 2.0 * per.base.t2):
            th, _, ddth = per.eval(t)
            assert abs(th - th_s) < 1e-12 and np.isfinite(ddth)
        per.eval(np.array([0.0, 2.0 * per.base.t2]))


def test_rk45_sweep_matches_solve_ivp(orbit):
    # Each side's steps (t_old, h, y_old, Q) equal scipy's RK45 dense outputs
    # bit for bit; the cut is bisected where scipy runs brentq.
    model, th_s, (theta1, theta2), _ = orbit

    def rhs(t, y):
        alpha, beta, gamma = model.coefficients(y[0])
        return np.array([y[1], -(beta * y[1] * y[1] + gamma) / alpha])

    for theta, target, t_bound in ((theta1, th_s - XI_CUT, 1e3), (theta2, th_s + XI_CUT, -1e3)):
        def cut(t, y):
            return y[0] - target
        cut.terminal = True
        ref = solve_ivp(rhs, (0.0, t_bound), [theta, 0.0], method="RK45", rtol=ODE_TOL,
                        atol=ODE_TOL, dense_output=True, events=[cut])
        steps = rk45_sweep(rhs, [theta, 0.0], t_bound, target, ODE_TOL)
        dense = ref.sol.interpolants
        assert steps.reached and len(steps.h) == len(dense)
        for mine, theirs in ((steps.t_old, [d.t_old for d in dense]),
                             (steps.h, [d.h for d in dense]),
                             (steps.y_old, [d.y_old for d in dense]),
                             (steps.Q, [d.Q for d in dense])):
            assert np.array_equal(mine, np.array(theirs))
        assert abs(steps.t - ref.t_events[0][0]) <= 1e-15
        assert np.abs(steps.y - ref.y_events[0][0]).max() <= 1e-15
