import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import expm, schur

import vhcplan as vp
from vhcplan.numdiff import cubic_coefficients


def test_wrap_angle():
    assert vp.wrap_angle(0.0) == 0.0
    assert vp.wrap_angle(math.pi) == -math.pi
    assert vp.wrap_angle(-math.pi) == -math.pi
    assert abs(vp.wrap_angle(3.0 * math.pi) + math.pi) < 1e-12
    assert abs(vp.wrap_angle(2.0 * math.pi + 0.1) - 0.1) < 1e-12
    assert abs(vp.wrap_angle(-2.0 * math.pi - 0.1) + 0.1) < 1e-12


def test_periodic_matrix_spline_wraps():
    taus = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    vals = np.stack([np.array([[math.sin(t), math.cos(t)]]) for t in taus])
    spline = vp.PeriodicMatrixSpline(taus, vals)
    for t in (-9.0, -2.0, 1.0, 4.0, 12.0):
        expected = spline(vp.wrap_angle(t))
        assert np.abs(spline(t) - expected).max() < 1e-12
    # A scalar tau sums the stored cubic itself; it must equal scipy's own
    # evaluation bit for bit, at every knot and across the wrap. One step below
    # the first knot wraps to exactly the last knot, which scipy's own periodic
    # wrap sends back to the first.
    scipy_spline = CubicSpline(np.append(taus, math.pi), np.concatenate([vals, vals[:1]]),
                               axis=0, bc_type="periodic")
    rng = np.random.default_rng(4)
    tests = np.concatenate([taus, taus + 2.0 * math.pi, taus - 2.0 * math.pi,
                            [taus[0] - 1e-17, np.nextafter(taus[0], -np.inf), math.pi],
                            rng.uniform(-10.0, 10.0, 200)])
    for t in tests:
        expected = scipy_spline(vp.wrap_angle(t))
        assert expected.shape == (1, 2)
        assert np.array_equal(spline(float(t)), expected)
        assert np.array_equal(spline(t), expected)
        assert np.array_equal(spline(np.array([t]))[0], expected)


@pytest.mark.parametrize("n_grid", [1, 2, 3, 4, 48, 512])
def test_cubic_coefficients_equal_scipy(n_grid):
    # The periodic spline's branches for 2 and 3 knots, the condensed
    # tridiagonal solve beyond them, and the Hermite formula: all == scipy's.
    rng = np.random.default_rng(n_grid)
    taus = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    t_ext = np.append(taus, taus[0] + 2.0 * math.pi)
    for shape in ((5, 5), (5, 2), (2, 5)):
        vals = rng.normal(size=(n_grid,) + shape)
        v_ext = np.concatenate([vals, vals[:1]])
        expected = CubicSpline(t_ext, v_ext, axis=0, bc_type="periodic").c
        assert np.array_equal(cubic_coefficients(t_ext, v_ext), expected)
    x = np.cumsum(rng.uniform(0.1, 1.0, n_grid + 1))
    y, dydx = rng.normal(size=(2, n_grid + 1))
    assert np.array_equal(cubic_coefficients(x, y, dydx), CubicHermiteSpline(x, y, dydx).c)


def test_tictoc_chart_on_orbit(tictoc_chart):
    for t in np.linspace(-math.pi, math.pi, 37, endpoint=False):
        q, qd, _ = vp.tic_toc_reference(float(t))
        tau, rho = tictoc_chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau - float(t))) < 1e-12
        assert np.abs(rho).max() < 1e-12


def test_tictoc_chart_known_offset(tictoc_chart):
    # The perturbed start of the closed-loop study: q = (0.1, -0.5, 0), rest.
    tau, rho = tictoc_chart.forward(np.array([0.1, -0.5, 0.0]), np.zeros(3))
    assert abs(tau - 0.5 * math.pi) < 1e-15
    expected = np.array([-0.495, -0.5 * math.pi + math.atan(0.2), 0.0, 0.0, -0.9])
    assert np.abs(rho - expected).max() < 1e-15


def test_chart_round_trip(tictoc_chart):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 50:
        tau = rng.uniform(-math.pi, math.pi)
        rho = rng.uniform(-0.4, 0.4, 5)
        if np.linalg.norm(rho) > tictoc_chart.tube_radius:
            continue
        q, qd = vp.chart_invert(tictoc_chart, tau, rho)
        tau_b, rho_b = tictoc_chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau_b - tau)) < 1e-10
        assert np.abs(rho_b - rho).max() < 1e-10
        checked += 1


def test_chart_guess_is_exact_inverse(tictoc_chart):
    q, qd = tictoc_chart.invert_guess(0.7, np.array([0.1, -0.2, 0.3, 0.05, -0.4]))
    tau, rho = tictoc_chart.forward(q, qd)
    assert abs(vp.wrap_angle(tau - 0.7)) < 1e-14
    assert np.abs(rho - [0.1, -0.2, 0.3, 0.05, -0.4]).max() < 1e-14


def test_chart_jacobian_matches_finite_differences(tictoc_chart):
    rng = np.random.default_rng(23)
    for _ in range(10):
        y = rng.uniform(-1.0, 1.0, 6)
        y[0] += 1.5  # keep clear of the x = xdot = 0 axis
        J = tictoc_chart.jacobian(y[:3], y[3:])
        h = 1e-7
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            tp, rp = tictoc_chart.forward((y + e)[:3], (y + e)[3:])
            tm, rm = tictoc_chart.forward((y - e)[:3], (y - e)[3:])
            fd = np.concatenate([[vp.wrap_angle(tp - tm)], rp - rm]) / (2.0 * h)
            assert np.abs(J[:, j] - fd).max() < 1e-6


def test_chart_invert_rejects_points_outside_tube(tictoc_chart):
    with pytest.raises(vp.OutsideTubeError):
        vp.chart_invert(tictoc_chart, 0.0, np.array([2.0, 0.0, 0.0, 0.0, 0.0]))


def test_chart_forward_flags_inside(tictoc_chart):
    q, qd, _ = vp.tic_toc_reference(0.3)
    _, rho = tictoc_chart.forward(q, qd)
    assert np.linalg.norm(rho) <= tictoc_chart.tube_radius and np.abs(rho).max() < 1e-12
    _, far = tictoc_chart.forward(np.array([0.1, -0.5, 0.0]), np.zeros(3))
    assert np.linalg.norm(far) > tictoc_chart.tube_radius


def test_family_chart_on_orbit(family_pack):
    chart, traj = family_pack["chart"], family_pack["traj"]
    for t in np.linspace(traj.t0, traj.t0 + traj.period, 17, endpoint=False):
        q, qd = traj.state_at(float(t))
        _, rho = chart.forward(q, qd)
        assert np.abs(rho).max() < 1e-10


def test_family_chart_round_trip(family_pack):
    chart = family_pack["chart"]
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 30:
        tau = rng.uniform(-math.pi, math.pi)
        rho = rng.uniform(-0.3, 0.3, 5)
        if np.linalg.norm(rho) > chart.tube_radius:
            continue
        q, qd = vp.chart_invert(chart, tau, rho)
        tau_b, rho_b = chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau_b - tau)) < 1e-10
        assert np.abs(rho_b - rho).max() < 1e-10
        checked += 1


def test_family_chart_jacobian(family_pack):
    chart = family_pack["chart"]
    q = np.array([0.05, -0.02, 1.60])
    qd = np.array([0.1, 0.05, 0.8])
    J = chart.jacobian(q, qd)
    y = np.concatenate([q, qd])
    h = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        tp, rp = chart.forward((y + e)[:3], (y + e)[3:])
        tm, rm = chart.forward((y - e)[:3], (y - e)[3:])
        fd = np.concatenate([[vp.wrap_angle(tp - tm)], rp - rm]) / (2.0 * h)
        # The orbit interpolant's slope noise bounds the achievable agreement.
        assert np.abs(J[:, j] - fd).max() < 5e-6


def test_family_chart_reference_consistency(family_pack):
    # The orbit point of a phase, from the chart's inverse at rho = 0 and from
    # the trajectory at the chart's time of that phase, is the same point.
    chart, traj = family_pack["chart"], family_pack["traj"]
    for tau in np.linspace(-math.pi, math.pi, 9, endpoint=False):
        q, qd = chart.invert_guess(float(tau), np.zeros(5))
        tau_b, rho = chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau_b - float(tau))) < 1e-9
        assert np.abs(rho).max() < 1e-9
        q_t, qd_t = traj.state_at(chart._time_of_phase(float(tau)))
        assert np.abs(np.concatenate([q - q_t, qd - qd_t])).max() < 1e-9


def test_family_chart_time_of_phase(family_pack):
    chart, traj = family_pack["chart"], family_pack["traj"]
    crossings = np.array([c[0] for c in traj.scalar.crossings])
    tau = np.concatenate([np.linspace(-math.pi, math.pi, 257),
                          chart.forward(*traj.state_at(crossings))[0]])
    tau_b, rho = chart.forward(*traj.state_at(chart._time_of_phase(tau)))
    assert np.abs(vp.wrap_angle(tau_b - tau)).max() < 1e-11
    assert np.abs(rho).max() < 1e-11


def test_linearize_shapes_and_on_orbit_field(tictoc_ltv):
    assert tictoc_ltv.A.shape == (512, 5, 5)
    assert tictoc_ltv.B.shape == (512, 5, 2)
    assert tictoc_ltv.taus[0] == -math.pi
    assert tictoc_ltv.f0_max < 1e-9


def test_linearize_spline_interpolates_grid(tictoc_ltv):
    for i in (0, 100, 300):
        tau = float(tictoc_ltv.taus[i])
        assert np.abs(tictoc_ltv.a_of(tau) - tictoc_ltv.A[i]).max() < 1e-10
        assert np.abs(tictoc_ltv.b_of(tau) - tictoc_ltv.B[i]).max() < 1e-10


def test_linearize_rejects_mismatched_chart(pvtol, family_pack, tictoc_trajectory):
    with pytest.raises(vp.ConditionCheckError):
        vp.linearize(family_pack["chart"], pvtol, tictoc_trajectory, n_grid=8)


def test_gramian_symmetric_positive_definite(tictoc_gramian):
    W = tictoc_gramian
    assert np.abs(W - W.T).max() < 1e-10
    assert np.linalg.eigvalsh(W).min() > 1e-6


def test_gramian_matches_direct_transition_route(tictoc_ltv, tictoc_gramian):
    # Independent route: propagate the forward transition matrix and invert it
    # at each quadrature node instead of integrating the inverse factor.
    def rhs(s, y):
        phi = y.reshape(5, 5)
        return (tictoc_ltv.a_of(s) @ phi).ravel()

    nodes = np.linspace(0.0, 2.0 * math.pi, 801)
    sol = solve_ivp(rhs, (0.0, 2.0 * math.pi), np.eye(5).ravel(),
                    rtol=1e-10, atol=1e-10, t_eval=nodes, dense_output=True)
    vals = []
    for k, s in enumerate(nodes):
        phi_inv = np.linalg.inv(sol.y[:, k].reshape(5, 5))
        m = phi_inv @ tictoc_ltv.b_of(float(s))
        vals.append(m @ m.T)
    W_ref = np.trapezoid(np.stack(vals), nodes, axis=0)
    assert np.abs(W_ref - tictoc_gramian).max() / np.abs(tictoc_gramian).max() < 1e-4


def test_gramian_spectrum(tictoc_gramian):
    eigs = np.sort(np.linalg.eigvalsh(tictoc_gramian))[::-1]
    expected = np.array([744.0, 70.7, 15.3, 5.16, 0.0537])
    assert np.all(np.abs(eigs - expected) / expected < 0.05)


def test_periodic_lqr_converges(tictoc_gains):
    assert tictoc_gains.sweeps == 1
    assert tictoc_gains.fixed_point_gap < 1e-8
    for i in (0, 128, 400):
        P = tictoc_gains.P[i]
        assert np.abs(P - P.T).max() < 1e-9
        assert np.linalg.eigvalsh(P).min() > 0.0


@pytest.mark.parametrize("orbit", ["tictoc", "family"])
def test_riccati_multipliers_match_closed_loop_monodromy(request, orbit):
    # The stable block of the Hamiltonian period map predicts the closed-loop
    # Floquet multipliers; the monodromy of A + B K computes them independently.
    if orbit == "tictoc":
        ltv = request.getfixturevalue("tictoc_ltv")
    else:
        ltv = request.getfixturevalue("family_pack")["ltv"]
    gains = request.getfixturevalue(f"{orbit}_gains")
    _, eig = vp.monodromy(ltv, gains)
    assert gains.multipliers.shape == (5,)
    assert np.abs(np.sort(np.abs(gains.multipliers)) - np.sort(np.abs(eig))).max() < 1e-6


@pytest.mark.parametrize("A", ["tictoc", "saddle"])
def test_periodic_lqr_rejects_unstabilizable_model(tictoc_ltv, A):
    # With B = 0 the tic-toc A keeps its multipliers on and outside the unit
    # circle; the constant saddle has a stable subspace that is no graph over x.
    A = tictoc_ltv.A if A == "tictoc" else np.tile(np.diag([0.1, -0.1, -0.2, -0.3, -0.4]),
                                                   (tictoc_ltv.taus.size, 1, 1))
    model = vp.LtvModel(taus=tictoc_ltv.taus, A=A, B=np.zeros_like(tictoc_ltv.B),
                        f0_max=0.0)
    with pytest.raises(vp.ConvergenceError):
        vp.periodic_lqr(model)


@pytest.mark.parametrize("R", [np.zeros((2, 2)), -np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
def test_periodic_lqr_rejects_r_that_is_not_spd(tictoc_ltv, R):
    with pytest.raises(vp.DomainError):
        vp.periodic_lqr(tictoc_ltv, R=R)


def test_riccati_residual_on_grid(tictoc_ltv, tictoc_gains):
    # P must satisfy dP/dtau = -(A'P + PA - PBB'P + Q) along the grid; check
    # the derivative with central differences of the periodic interpolant.
    p_spline = vp.PeriodicMatrixSpline(tictoc_gains.taus, tictoc_gains.P)
    h = 1e-5
    for tau in (-2.0, 0.0, 1.3):
        P = p_spline(tau)
        dP = (p_spline(tau + h) - p_spline(tau - h)) / (2.0 * h)
        A = tictoc_ltv.a_of(tau)
        B = tictoc_ltv.b_of(tau)
        res = dP + A.T @ P + P @ A - P @ B @ B.T @ P + np.eye(5)
        assert np.abs(res).max() < 1e-3


def test_gain_schedule_definition(tictoc_ltv, tictoc_gains):
    for i in (0, 77, 311):
        K_expected = -tictoc_ltv.B[i].T @ tictoc_gains.P[i]
        assert np.abs(tictoc_gains.K[i] - K_expected).max() < 1e-12
    assert np.abs(tictoc_gains.k_of(float(tictoc_gains.taus[77]))
                  - tictoc_gains.K[77]).max() < 1e-10


def test_monodromy_closed_loop_contracts(tictoc_ltv, tictoc_gains):
    _, eig_open = vp.monodromy(tictoc_ltv, None)
    _, eig_closed = vp.monodromy(tictoc_ltv, tictoc_gains)
    assert np.abs(eig_open).max() >= 1.0
    assert np.abs(eig_closed).max() < 0.05


def test_monodromy_start_point_invariance(tictoc_ltv, tictoc_gains):
    _, eig_a = vp.monodromy(tictoc_ltv, tictoc_gains, t0=0.0)
    _, eig_b = vp.monodromy(tictoc_ltv, tictoc_gains, t0=math.pi)
    assert np.abs(np.sort(np.abs(eig_a)) - np.sort(np.abs(eig_b))).max() < 1e-6


def test_monodromy_cocycle(tictoc_ltv, tictoc_gains):
    # Phi(0 -> 2pi) = Phi(pi -> 2pi) Phi(0 -> pi) for the closed-loop flow.
    def rhs(s, y):
        phi = y.reshape(5, 5)
        A = tictoc_ltv.a_of(s) + tictoc_ltv.b_of(s) @ tictoc_gains.k_of(s)
        return (A @ phi).ravel()

    def transition(a, b):
        sol = solve_ivp(rhs, (a, b), np.eye(5).ravel(), rtol=1e-10, atol=1e-10)
        return sol.y[:, -1].reshape(5, 5)

    F, _ = vp.monodromy(tictoc_ltv, tictoc_gains)
    product = transition(math.pi, 2.0 * math.pi) @ transition(0.0, math.pi)
    assert np.abs(F - product).max() < 1e-8


def test_family_gramian_nonsingular(family_pack):
    W = vp.gramian(family_pack["ltv"])
    assert np.abs(W - W.T).max() < 1e-10
    assert np.linalg.eigvalsh(W).min() > 1e-6


# -- the Magnus interval maps against an independent RK45 oracle --------------


def _rk45_period_map(coefficient, t0, n):
    """Phi(t0 + 2 pi, t0) of Phi' = M(s) Phi by adaptive RK45 at tolerance 1e-12."""
    sol = solve_ivp(lambda s, y: (coefficient(s) @ y.reshape(n, n)).ravel(),
                    (t0, t0 + 2.0 * math.pi), np.eye(n).ravel(), rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def _hamiltonian(ltv):
    """Coefficient of the LQR Hamiltonian system (Q = I, R = I) at a phase or an array of them."""
    def coefficient(s):
        A, B = ltv.a_of(s), ltv.b_of(s)
        return np.block([[A, -B @ B.swapaxes(-1, -2)],
                         [np.broadcast_to(-np.eye(5), A.shape), -A.swapaxes(-1, -2)]])

    return coefficient


def _schur_graph(period_map):
    """P = Y X^{-1} of the stable subspace [X; Y] of a Hamiltonian period map (ordered Schur)."""
    _, Z, n_stable = schur(period_map, output="real", sort="iuc")
    assert n_stable == 5
    P = np.linalg.solve(Z[:5, :5].T, Z[5:, :5].T)
    return 0.5 * (P + P.T)


def _rk45_riccati_p0(ltv):
    """P at the first grid node from the stable Schur subspace of the RK45 Hamiltonian map."""
    return _schur_graph(_rk45_period_map(_hamiltonian(ltv), float(ltv.taus[0]), 10))


def _rk45_gramian(ltv):
    def rhs(s, y):
        Y = y[:25].reshape(5, 5)
        YB = Y @ ltv.b_of(s)
        return np.concatenate([(-Y @ ltv.a_of(s)).ravel(), (YB @ YB.T).ravel()])

    sol = solve_ivp(rhs, (0.0, 2.0 * math.pi), np.concatenate([np.eye(5).ravel(), np.zeros(25)]),
                    rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[25:, -1].reshape(5, 5)


def _relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module", params=["tictoc", "family"])
def orbit_reference(request):
    """LTV model, gains and RK45 references of P(0), the Gramian and the closed-loop map."""
    if request.param == "tictoc":
        ltv = request.getfixturevalue("tictoc_ltv")
    else:
        ltv = request.getfixturevalue("family_pack")["ltv"]
    gains = request.getfixturevalue(f"{request.param}_gains")
    closed = _rk45_period_map(lambda s: ltv.a_of(s) + ltv.b_of(s) @ gains.k_of(s), 0.0, 5)
    return {"ltv": ltv, "gains": gains, "P0": _rk45_riccati_p0(ltv),
            "W": _rk45_gramian(ltv), "F": closed}


def test_interval_maps_match_rk45(orbit_reference):
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    assert _relative(gains.P[0], orbit_reference["P0"]) < 1e-7
    assert _relative(vp.gramian(ltv), orbit_reference["W"]) < 1e-7
    assert _relative(vp.monodromy(ltv, gains)[0], orbit_reference["F"]) < 1e-7
    assert gains.sweeps == 1 and gains.fixed_point_gap < 1e-10


def test_interval_maps_fourth_order(tictoc_ltv, monkeypatch):
    # Halving the step must cut the P(0) error at least 8-fold; a clean
    # fourth-order method cuts it 16-fold.
    reference = _rk45_riccati_p0(tictoc_ltv)
    errors = []
    for step in (vp.transverse.MAGNUS_STEP, 0.5 * vp.transverse.MAGNUS_STEP):
        monkeypatch.setattr(vp.transverse, "MAGNUS_STEP", step)
        errors.append(_relative(vp.periodic_lqr(tictoc_ltv).P[0], reference))
    assert errors[1] * 8.0 <= errors[0]


def test_monodromy_off_knot_start(orbit_reference):
    # From t0 = 1.0 the steps straddle the spline knots; the multipliers of a
    # period map do not depend on where the period starts.
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    _, eig_knot = vp.monodromy(ltv, gains, t0=0.0)
    _, eig_off = vp.monodromy(ltv, gains, t0=1.0)
    assert np.abs(np.sort(np.abs(eig_knot)) - np.sort(np.abs(eig_off))).max() < 1e-8


# -- the batched Taylor exponential and the graph-form Riccati sweep ----------


def test_expm_matches_scipy_per_matrix():
    # The 1-norms reach degrees 4, 8 and 11 and, from 0.9 on, the halving and
    # squaring branch. At 1-norm 50 scipy's own expm can be 8e-13 off a
    # 40-digit reference on 5 x 5 Gaussian matrices, so the bound there is 1e-12.
    rng = np.random.default_rng(11)
    norms = (1e-3, 0.05, 0.2, 0.9, 5.0, 50.0)
    assert [vp.transverse._taylor_degree(t) for t in norms] == [4, 8, 11, None, None, None]
    for d in (5, 10):
        base = rng.standard_normal((8, d, d))
        for norm in norms:
            a = base * (norm / np.abs(base).sum(axis=-2).max())
            tol = 1e-13 if norm <= 5.0 else 1e-12
            for got, x in zip(vp.transverse._expm(a), a):
                assert _relative(got, expm(x)) < tol


def test_expm_zero_and_non_finite():
    assert np.array_equal(vp.transverse._expm(np.zeros((3, 4, 4))), np.tile(np.eye(4), (3, 1, 1)))
    for bad in (math.nan, math.inf):
        a = np.full((4, 5, 5), 0.01)
        a[2, 1, 3] = bad
        with pytest.raises(vp.ConvergenceError):
            vp.transverse._expm(a)


def test_riccati_graph_matches_period_map_from_each_node(orbit_reference):
    # P(tau_i) from the ordered Schur form of the period map started at node i,
    # without the backward recursion of `periodic_lqr`.
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    n_nodes = ltv.taus.size
    maps = vp.transverse._interval_maps(_hamiltonian(ltv), float(ltv.taus[0]), n_nodes)
    for i in range(0, n_nodes, n_nodes // 4):   # tic-toc: nodes 0, 128, 256, 384
        period_map = vp.transverse._ordered_product(np.roll(maps, -i, axis=0))
        assert _relative(gains.P[i], _schur_graph(period_map)) < 1e-9
