"""End-to-end acceptance checks for the full toolkit.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist;
tolerances and runtime budgets are asserted, not just reported.
"""

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

import vhcplan as vp


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} failed: {detail}"


def test_acceptance_01_reference_solves_dynamics(pvtol):
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi, 1000):
        q, _, u = vp.tic_toc_reference(float(t))
        residual = vp.tic_toc_acceleration(float(t)) - (
            pvtol.input_map(q) @ u - pvtol.gravity(q))
        worst = max(worst, float(np.abs(residual).max()))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-9 and elapsed < 1.0,
            f"max dynamics residual {worst:.2e} over 1000 samples in {elapsed:.2f}s")


def test_acceptance_02_reduced_coefficient_ratios(pvtol):
    start = time.perf_counter()
    model = vp.reduce(pvtol, vp.tic_toc_vhc())
    worst_a = worst_b = 0.0
    for th in np.linspace(-1.5, 1.5, 601):
        a, b, g = model.coefficients(float(th))
        worst_a = max(worst_a, abs(a / g - th))
        worst_b = max(worst_b, abs(b / g + 1.0))
    elapsed = time.perf_counter() - start
    _report(2, worst_a < 1e-10 and worst_b < 1e-10 and elapsed < 1.0,
            f"|alpha/gamma - theta| <= {worst_a:.2e}, |beta/gamma + 1| <= {worst_b:.2e} "
            f"in {elapsed:.2f}s")


def test_acceptance_03_existence_checker(tictoc_report):
    rep = tictoc_report
    ok = (rep.overall and abs(rep.theta_s) < 1e-12 and abs(rep.v_s - 1.0) < 1e-9
          and abs(rep.beta_s / rep.alpha_slope + 1.0) < 1e-8)
    bad = vp.check_theorem1(vp.family_reduced(0.25 * math.pi, 1.0, 2.0, 1.0,
                                              (-0.3, 0.3)))
    ok = ok and (not bad.overall) and (not bad.flags["ratio_below_minus_half"])
    _report(3, ok,
            f"tic-toc passes (theta_s={rep.theta_s:.1e}, v_s-1={rep.v_s - 1.0:.1e}); "
            f"curvature-flipped family fails on the velocity-ratio flag")


def test_acceptance_04_singular_boundary_solver(tictoc_model, tictoc_report):
    start = time.perf_counter()
    sol = vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 1.0, 0.0)
    per = vp.make_periodic(sol)
    worst_sym = 0.0
    for t in np.linspace(per.t0, per.t0 + per.period, 1200):
        th, _, _ = per.eval(float(t))
        worst_sym = max(worst_sym, abs(th - math.sin(t)))
    asym = vp.solve_boundary(tictoc_model, tictoc_report, -1.0, 0.0, 2.0, 0.0)
    worst_asym = 0.0
    for t in np.linspace(asym.t1, asym.t2, 600):
        th, _, _ = asym.eval(float(t))
        ref = math.sin(t) if t <= 0.0 else 2.0 * math.sin(0.5 * t)
        worst_asym = max(worst_asym, abs(th - ref))
    elapsed = time.perf_counter() - start
    _report(4, worst_sym < 1e-6 and worst_asym < 1e-6 and elapsed < 2.0,
            f"|theta - sin t| <= {worst_sym:.2e}; asymmetric piecewise error "
            f"<= {worst_asym:.2e}; {elapsed:.2f}s")


def test_acceptance_05_lift_consistency(tictoc_trajectory):
    traj = tictoc_trajectory
    worst_q = worst_u = 0.0
    for i in range(traj.t.size):
        q_ref, _, u_ref = vp.tic_toc_reference(float(traj.t[i]))
        worst_q = max(worst_q, float(np.abs(traj.q[i] - q_ref).max()))
        worst_u = max(worst_u, float(np.abs(traj.u[i] - u_ref).max()))
    residual = float(traj.residuals.max())
    _report(5, worst_q < 1e-6 and worst_u < 1e-6 and residual < 1e-8,
            f"configuration error {worst_q:.2e}, input error {worst_u:.2e}, "
            f"unactuated residual {residual:.2e}")


def test_acceptance_06_gramian_spectrum(tictoc_ltv, tictoc_gramian, timings):
    eigs = np.sort(np.linalg.eigvalsh(tictoc_gramian))[::-1]
    expected = np.array([744.0, 70.7, 15.3, 5.16, 0.0537])
    rel = np.abs(eigs - expected) / expected
    elapsed = timings["linearize_512"] + timings["gramian"]
    _report(6, bool(np.all(rel < 0.05)) and elapsed < 30.0,
            f"eigenvalues {np.array2string(eigs, precision=3)} within "
            f"{rel.max() * 100:.2f}% of target; N=512 pipeline {elapsed:.1f}s")


def test_acceptance_07_monodromy_spectra(tictoc_ltv, tictoc_gains):
    _, eig_open = vp.monodromy(tictoc_ltv, None)
    _, eig_closed = vp.monodromy(tictoc_ltv, tictoc_gains)
    open_radius = float(np.abs(eig_open).max())
    closed_max = float(np.abs(eig_closed).max())
    _report(7, closed_max < 0.05 and open_radius >= 1.0,
            f"closed-loop multipliers max |lambda| = {closed_max:.2e} (< 0.05); "
            f"open-loop spectral radius {open_radius:.2f} >= 1")


def test_acceptance_08_closed_loop_simulation(pvtol, tictoc_chart, tictoc_gains):
    start = time.perf_counter()
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains,
                             np.array([0.1, -0.5, 0.0]), np.zeros(3), dt=0.01,
                             horizon=6.0 * math.pi)
    elapsed = time.perf_counter() - start
    final = float(np.linalg.norm(res.rho[-1]))
    bounded = bool(np.all(np.isfinite(res.q)) and np.all(np.isfinite(res.u))
                   and float(np.abs(res.q).max()) < 10.0)
    _report(8, final < 1e-3 and bounded and elapsed < 10.0,
            f"|rho(T)| = {final:.2e} after three periods; signals bounded; "
            f"{elapsed:.2f}s at dt = 10 ms")


def test_acceptance_09_no_regular_vhc_certificate(pvtol, reference_orbit):
    cert = vp.certify_no_regular_vhc(pvtol, reference_orbit)
    times = sorted(p.time for p in cert.passes)
    ok = (cert.verdict and len(times) == 2
          and abs(times[0]) < 1e-8 and abs(times[1] - math.pi) < 1e-8
          and all(abs(p.gravity_distance - 1.0) < 1e-12 for p in cert.passes)
          and all(abs(p.speed - math.sqrt(5.0)) < 1e-12 for p in cert.passes))
    _report(9, ok,
            f"verdict positive; crossings at t = {times[0]:.1e}, "
            f"{times[1]:.6f}; gravity distance and speed at tolerance 1e-12")


def test_acceptance_10_accessibility(pvtol):
    q0, qd0, _ = vp.tic_toc_reference(0.0)
    closed = vp.accessibility_det_closed_form(q0, qd0)
    numeric = vp.accessibility_det_numeric(pvtol, q0, qd0)
    ok = abs(closed + 12.0) < 1e-9 and abs(numeric - closed) / 12.0 < 1e-4
    # Zero crossings of the determinant along one period of the orbit.
    ts = np.linspace(-math.pi + 0.05, math.pi - 0.05, 4001)
    dets = np.array([vp.accessibility_det_closed_form(*vp.tic_toc_reference(float(t))[:2])
                     for t in ts])
    roots = []
    for i in np.nonzero(np.diff(np.sign(dets)) != 0)[0]:
        a, b = float(ts[i]), float(ts[i + 1])
        fa = float(dets[i])
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = vp.accessibility_det_closed_form(*vp.tic_toc_reference(m)[:2])
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    ok = ok and len(roots) == 2
    ok = ok and all(min(abs(r - 0.5 * math.pi), abs(r + 0.5 * math.pi)) < 1e-6
                    for r in roots)
    _report(10, ok,
            f"det = {closed:.10f} at the crossing (numeric {numeric:.6f}); "
            f"determinant vanishes only at the rest points")


def _closure_residual(model, per):
    """Re-integrate the reduced dynamics across the turning point at t2 and
    compare against the mirrored periodic solution (independent of the wrap)."""
    def rhs(t, y):
        th, dth = y
        alpha, beta, gamma = model.coefficients(th)
        return [dth, -(beta * dth * dth + gamma) / alpha]

    t2 = per.t2
    y0 = per.eval(0.5 * t2)[:2]
    out = solve_ivp(rhs, (0.5 * t2, 1.5 * t2), y0, rtol=1e-10, atol=1e-10,
                    dense_output=True)
    worst = 0.0
    for t in np.linspace(0.5 * t2, 1.5 * t2, 201):
        th_i, dth_i = out.sol(float(t))
        th_p, dth_p, _ = per.eval(float(t))
        worst = max(worst, abs(th_i - th_p), abs(dth_i - dth_p))
    return worst


def test_acceptance_11_family_pipeline(pvtol, family_pack):
    ok = True
    details = []
    for psi, pack in ((0.25 * math.pi, None), (0.5 * math.pi, family_pack)):
        if pack is None:
            params = vp.find_family_parameters(psi)
            ok = ok and params is not None and params.report.overall
            model = vp.family_reduced(params.psi_s, params.k1, params.k2,
                                      params.k3, params.interval)
            rep = vp.check_theorem1(model)
            tmax = params.interval[1]
            sol = vp.solve_boundary(model, rep, -0.8 * tmax, 0.0, 0.8 * tmax, 0.0)
            per = vp.make_periodic(sol)
            traj = vp.lift(model.vhc, per, pvtol)
            chart = vp.FamilyChart(traj)
            ltv = vp.linearize(chart, pvtol, traj, n_grid=96)
        else:
            params, model = pack["params"], pack["model"]
            per, ltv = pack["per"], pack["ltv"]
        closure = _closure_residual(model, per)
        min_eig = float(np.linalg.eigvalsh(vp.gramian(ltv)).min())
        ok = ok and closure < 1e-6 and min_eig > 1e-6
        details.append(f"psi_s={psi:.3f}: closure {closure:.1e}, "
                       f"Gramian min eig {min_eig:.1e}")
    _report(11, ok, "; ".join(details))


def test_acceptance_12_property_suite(tictoc_periodic, tictoc_chart, tictoc_ltv,
                                      tictoc_gains, tictoc_gramian, pvtol):
    per = tictoc_periodic
    reversal = 0.0
    for t in np.linspace(-1.4, 1.4, 15):
        th, dth, _ = per.eval(float(t))
        th_r, dth_r, _ = per.eval(math.pi - float(t))
        reversal = max(reversal, abs(th - th_r), abs(dth + dth_r))

    W = tictoc_gramian
    gram_ok = np.abs(W - W.T).max() < 1e-10 and np.linalg.eigvalsh(W).min() > 0.0

    def rhs(s, y):
        phi = y.reshape(5, 5)
        A = tictoc_ltv.a_of(s) + tictoc_ltv.b_of(s) @ tictoc_gains.k_of(s)
        return (A @ phi).ravel()

    def transition(a, b):
        out = solve_ivp(rhs, (a, b), np.eye(5).ravel(), rtol=1e-10, atol=1e-10)
        return out.y[:, -1].reshape(5, 5)

    F, _ = vp.monodromy(tictoc_ltv, tictoc_gains)
    cocycle = float(np.abs(F - transition(math.pi, 2.0 * math.pi)
                           @ transition(0.0, math.pi)).max())

    rng = np.random.default_rng(41)
    round_trip = 0.0
    for _ in range(25):
        tau = rng.uniform(-math.pi, math.pi)
        rho = rng.uniform(-0.3, 0.3, 5)
        q, qd = vp.chart_invert(tictoc_chart, tau, rho)
        tau_b, rho_b = tictoc_chart.forward(q, qd)
        round_trip = max(round_trip, abs(vp.wrap_angle(tau_b - tau)),
                         float(np.abs(rho_b - rho).max()))

    a = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains,
                           np.array([0.1, -0.5, 0.0]), np.zeros(3),
                           horizon=math.pi)
    b = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains,
                           np.array([0.1, -0.5, 0.0]), np.zeros(3),
                           horizon=math.pi)
    deterministic = np.array_equal(a.q, b.q) and np.array_equal(a.u, b.u)

    ok = (reversal < 1e-9 and gram_ok and cocycle < 1e-8
          and round_trip <= 1e-10 and deterministic)
    _report(12, ok,
            f"time reversal {reversal:.1e}; Gramian symmetric PSD; flow cocycle "
            f"{cocycle:.1e}; chart round trip {round_trip:.1e}; simulation deterministic")
