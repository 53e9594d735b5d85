import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import schur, solve_continuous_lyapunov

import vhcplan as vp
import vhcplan.numdiff
from vhcplan.numdiff import central_derivative, cubic_coefficients


def test_wrap_angle():
    assert vp.wrap_angle(0.0) == 0.0
    assert vp.wrap_angle(math.pi) == -math.pi
    assert vp.wrap_angle(-math.pi) == -math.pi
    assert abs(vp.wrap_angle(3.0 * math.pi) + math.pi) < 1e-12
    assert abs(vp.wrap_angle(2.0 * math.pi + 0.1) - 0.1) < 1e-12
    assert abs(vp.wrap_angle(-2.0 * math.pi - 0.1) + 0.1) < 1e-12


def _scipy_periodic_spline(taus, vals):
    return CubicSpline(np.append(taus, taus[0] + 2.0 * math.pi), np.concatenate([vals, vals[:1]]),
                       axis=0, bc_type="periodic")


def test_periodic_matrix_spline_wraps():
    taus = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    vals = np.stack([np.array([[math.sin(t), math.cos(t)]]) for t in taus])
    spline = vp.PeriodicMatrixSpline(taus, vals)
    for t in (-9.0, -2.0, 1.0, 4.0, 12.0):
        expected = spline(vp.wrap_angle(t))
        assert np.abs(spline(t) - expected).max() < 1e-12
    # A scalar tau sums the stored cubic itself; it must equal the array
    # evaluation bit for bit, at every knot and across the wrap, and scipy's
    # periodic spline to rounding.
    scipy_spline = _scipy_periodic_spline(taus, vals)
    rng = np.random.default_rng(4)
    tests = np.concatenate([taus, taus + 2.0 * math.pi, taus - 2.0 * math.pi,
                            [taus[0] - 1e-17, np.nextafter(taus[0], -np.inf), math.pi],
                            rng.uniform(-10.0, 10.0, 200)])
    for t in tests:
        value = spline(float(t))
        assert value.shape == (1, 2)
        assert np.array_equal(spline(t), value)
        assert np.array_equal(spline(np.array([t]))[0], value)
        assert np.abs(value - scipy_spline(vp.wrap_angle(t))).max() < 1e-13


@pytest.mark.parametrize("which", ["k_of", "a_of", "b_of", "time_of_phase", "orbit_table"])
def test_one_time_equals_its_row_of_an_array_of_times(which, tictoc_ltv, tictoc_gains,
                                                       family_pack):
    # Every value shape the package builds: K (2, 5), A (5, 5), B (5, 2), the
    # family chart's scalar phase-to-time map and the orbit's 4-column quartic
    # table. A float takes the scalar branch, an array the array branch; they
    # agree bit for bit at every knot and across the wrap.
    spline = {"k_of": tictoc_gains.k_of, "a_of": tictoc_ltv.a_of, "b_of": tictoc_ltv.b_of,
              "time_of_phase": family_pack["chart"]._time_of_phase,
              "orbit_table": family_pack["per"].table}[which]
    x = spline.breaks
    span = x[-1] - x[0]
    times = np.concatenate([x, x + span, x - span,
                            [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)]])
    for t, row in zip(times, spline(times)):
        value = spline(float(t))
        assert value.shape == row.shape and value.tobytes() == row.tobytes()


@pytest.mark.parametrize("n_grid", [1, 2, 3, 4, 48, 512])
def test_cubic_coefficients_equal_scipy(n_grid):
    # The periodic spline's values against scipy's to rounding, for every
    # value shape; the Hermite formula == scipy's bit for bit.
    rng = np.random.default_rng(n_grid)
    taus = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    t = np.concatenate([taus, rng.uniform(-10.0, 10.0, 200)])
    for shape in ((5, 5), (5, 2), (2, 5), ()):
        vals = rng.normal(size=(n_grid,) + shape)
        expected = _scipy_periodic_spline(taus, vals)(vp.wrap_angle(t))
        got = vp.PeriodicMatrixSpline(taus, vals)(t)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(vals).max()
    x = np.cumsum(rng.uniform(0.1, 1.0, n_grid + 1))
    y, dydx = rng.normal(size=(2, n_grid + 1))
    assert np.array_equal(cubic_coefficients(x, y, dydx), CubicHermiteSpline(x, y, dydx).c)


def test_periodic_spline_slopes_solve_the_circulant_system():
    # For y = sin(k tau) on n uniform knots the spline's knot slopes are
    # 3 sin(kh) / (h (2 + cos kh)) cos(k tau): the slope equations' circulant
    # has eigenvalue 4 + 2 cos(kh) on this mode.
    n = 512
    h = 2.0 * math.pi / n
    taus = -math.pi + h * np.arange(n)
    for k in range(1, 101):
        spline = vp.PeriodicMatrixSpline(taus, np.sin(k * taus))
        exact = 3.0 * math.sin(k * h) / (h * (2.0 + math.cos(k * h))) * np.cos(k * taus)
        slopes = spline._c[1]        # coefficients run lowest power first
        assert np.abs(slopes - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("taus", [np.array([-3.0, -1.0, 0.5, 2.0]),
                                  -math.pi + 2.0 * math.pi * np.arange(8) / 9,
                                  -math.pi + 2.0 * math.pi * np.arange(8)[::-1] / 8])
def test_periodic_spline_rejects_nonuniform_taus(taus):
    with pytest.raises(ValueError, match="uniform"):
        vp.PeriodicMatrixSpline(taus, np.ones((len(taus), 2)))


def test_periodic_spline_rejects_a_non_finite_sample(tictoc_ltv):
    for bad in (math.nan, math.inf):
        A = tictoc_ltv.A.copy()
        A[7, 1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                dataclasses.replace(tictoc_ltv, A=A)


@pytest.fixture(scope="module")
def chart_cases(tictoc_chart, family_pack):
    return {"tictoc": tictoc_chart, "family": family_pack["chart"]}


def _chart_points(chart, rng, k, radius):
    """k points of the chart at uniform phases and rho uniform in a box inside the tube."""
    tau = rng.uniform(-math.pi, math.pi, 4 * k)
    rho = rng.uniform(-radius, radius, (4 * k, 5))
    inside = np.linalg.norm(rho, axis=1) <= chart.tube_radius
    return tau[inside][:k], rho[inside][:k]


def _check_on_orbit(chart, orbit):
    taus = []
    for t in np.linspace(orbit.t0, orbit.t0 + orbit.period, 37, endpoint=False):
        tau, rho = chart.forward(*orbit.state_at(float(t)))
        assert np.abs(rho).max() < 1e-10
        taus.append(tau)
    assert np.all(np.diff(np.unwrap(taus)) > 0.0)


def _check_round_trip(chart, rng, k):
    for tau, rho in zip(*_chart_points(chart, rng, k, 0.4)):
        q, qd = vp.chart_invert(chart, tau, rho)
        tau_b, rho_b = chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau_b - tau)) < 1e-10
        assert np.abs(rho_b - rho).max() < 1e-10


def _check_jacobian(chart, rng, tol):
    h = 1e-7
    for tau, rho in zip(*_chart_points(chart, rng, 10, 0.4)):
        y = np.concatenate(chart.invert_guess(tau, rho))
        J = chart.jacobian(y[:3], y[3:])
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            tp, rp = chart.forward((y + e)[:3], (y + e)[3:])
            tm, rm = chart.forward((y - e)[:3], (y - e)[3:])
            fd = np.concatenate([[vp.wrap_angle(tp - tm)], rp - rm]) / (2.0 * h)
            assert np.abs(J[:, j] - fd).max() < tol


def test_tictoc_chart_on_orbit(tictoc_chart):
    _check_on_orbit(tictoc_chart, vp.tic_toc_orbit())
    # The phase of the tic-toc reference is its time.
    for t in np.linspace(-math.pi, math.pi, 37, endpoint=False):
        q, qd, _ = vp.tic_toc_reference(float(t))
        tau, rho = tictoc_chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau - float(t))) < 1e-12
        assert np.abs(rho).max() < 1e-12


def test_family_chart_on_orbit(family_pack):
    _check_on_orbit(family_pack["chart"], family_pack["traj"])


def test_tictoc_chart_known_offset(tictoc_chart):
    # The perturbed start of the closed-loop study: q = (0.1, -0.5, 0), rest.
    tau, rho = tictoc_chart.forward(np.array([0.1, -0.5, 0.0]), np.zeros(3))
    assert abs(tau - 0.5 * math.pi) < 1e-15
    expected = np.array([-0.495, -0.5 * math.pi + math.atan(0.2), 0.0, 0.0, -0.9])
    assert np.abs(rho - expected).max() < 1e-15


def test_chart_round_trip(tictoc_chart):
    _check_round_trip(tictoc_chart, np.random.default_rng(17), 50)


def test_family_chart_round_trip(family_pack):
    _check_round_trip(family_pack["chart"], np.random.default_rng(29), 30)


def test_chart_guess_is_exact_inverse(chart_cases):
    rho = np.array([0.1, -0.2, 0.3, 0.05, -0.4])
    for name, chart in chart_cases.items():
        q, qd = chart.invert_guess(0.7, rho)
        tau, rho_b = chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau - 0.7)) < 1e-14, name
        assert np.abs(rho_b - rho).max() < 1e-14, name


def test_chart_jacobian_matches_finite_differences(tictoc_chart):
    _check_jacobian(tictoc_chart, np.random.default_rng(23), 1e-6)


def test_family_chart_jacobian(family_pack):
    # The family chart's r*(tau) comes through the orbit's interpolated time of
    # a phase, whose slope noise bounds the achievable agreement.
    _check_jacobian(family_pack["chart"], np.random.default_rng(31), 5e-6)


def test_chart_invert_rejects_points_outside_tube(chart_cases):
    for chart in chart_cases.values():
        with pytest.raises(vp.OutsideTubeError):
            vp.chart_invert(chart, 0.0, np.array([2.0, 0.0, 0.0, 0.0, 0.0]))


def test_chart_forward_flags_inside(tictoc_chart):
    q, qd, _ = vp.tic_toc_reference(0.3)
    _, rho = tictoc_chart.forward(q, qd)
    assert np.linalg.norm(rho) <= tictoc_chart.tube_radius and np.abs(rho).max() < 1e-12
    _, far = tictoc_chart.forward(np.array([0.1, -0.5, 0.0]), np.zeros(3))
    assert np.linalg.norm(far) > tictoc_chart.tube_radius


def test_family_chart_matches_tictoc_chart(tictoc_chart, tictoc_trajectory):
    # The recipe on the planned tic-toc orbit against its closed-form instance.
    chart = vp.FamilyChart(tictoc_trajectory)
    rng = np.random.default_rng(41)
    tau = rng.uniform(-math.pi, math.pi, 2000)
    rho = rng.normal(size=(2000, 5))
    rho *= rng.uniform(0.0, 0.3, (2000, 1)) / np.linalg.norm(rho, axis=1, keepdims=True)
    q, qd = vp.chart_invert(tictoc_chart, tau, rho)
    tau_a, rho_a = tictoc_chart.forward(q, qd)
    tau_b, rho_b = chart.forward(q, qd)
    assert np.abs(vp.wrap_angle(tau_b - tau_a)).max() < 1e-9
    assert np.abs(rho_b - rho_a).max() < 1e-9
    gap = np.abs(chart.reference_input(tau) - tictoc_chart.reference_input(tau)).max(axis=1)
    far = np.minimum(np.abs(tau), math.pi - np.abs(tau)) > 0.05
    assert gap[far].max() < 5e-8
    # Beside a crossing the planned orbit's theta'' is the reduced model's 0/0
    # quotient -(beta theta'^2 + gamma)/alpha, off by up to about 9e-6 against
    # -sin t at the edge of the series bridge (singular_solver). The planned
    # reference input inherits that floor: the gap reads about 6e-7 there.
    assert gap.max() < 1e-5


def test_family_chart_needs_an_affine_readback(pvtol, family_pack, tictoc_trajectory):
    params = family_pack["params"]
    assert family_pack["model"].vhc.readback == (2, params.psi_s, params.k2)
    # Input directions (1, 0, 1) and (0, 1, 1) leave no coordinate free of the
    # curvature term, whose direction (1, 1, -1)/sqrt(3) has no zero entry.
    skew = vp.MechanicalSystem(n=3, mass_matrix=pvtol.mass_matrix, coriolis=pvtol.coriolis,
                               gravity=pvtol.gravity,
                               input_map=lambda q: np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert vp.family_vhc(skew, np.zeros(3), 0.5, 1.0, -0.5).readback is None
    vhc = dataclasses.replace(tictoc_trajectory.vhc, readback=None)
    with pytest.raises(vp.ConditionCheckError, match="no affine read-back"):
        vp.FamilyChart(dataclasses.replace(tictoc_trajectory, vhc=vhc))


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


def test_central_derivative_one_call_on_the_stencil():
    # Richardson's rule is exact on quartics up to rounding; f sees one stencil.
    calls = []

    def f(points):
        calls.append(points.shape)
        x, y = points.T
        return np.array([x ** 4 + x * y, y ** 3])

    value, jac = central_derivative(f, np.array([0.5, -2.0]))
    assert calls == [(9, 2)]
    assert np.array_equal(value, [0.5 ** 4 - 1.0, -8.0])
    assert np.allclose(jac, [[0.5 - 2.0, 0.5], [0.0, 12.0]], rtol=1e-11, atol=1e-11)
    value, slope = central_derivative(lambda th: np.array([np.sin(th), th ** 2]), 0.3)
    assert value.shape == slope.shape == (2,)
    assert np.allclose(slope, [math.cos(0.3), 0.6], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("which", ["tictoc", "family"])
def test_linearize_matches_coarser_richardson_step(which, monkeypatch, pvtol, tictoc_chart,
                                                   tictoc_trajectory, family_pack):
    # At step 1e-3 the rule's O(h^4) truncation is far below 2e-10; at the
    # default step so is its rounding. A rho step of 1e-6 read 4e-10 (tic-toc)
    # and 4e-9 (family) here, nearly all of it rounding.
    chart, traj = ((tictoc_chart, tictoc_trajectory) if which == "tictoc"
                   else (family_pack["chart"], family_pack["traj"]))
    ltv = vp.linearize(chart, pvtol, traj, n_grid=64)
    monkeypatch.setattr(vhcplan.numdiff, "DIFF_STEP", 1e-3)
    ref = vp.linearize(chart, pvtol, traj, n_grid=64)
    for got, want in ((ltv.A, ref.A), (ltv.B, ref.B)):
        assert np.abs(got - want).max() <= 2e-10 * np.abs(want).max()


def test_linearize_rejects_mismatched_chart(pvtol, family_pack, tictoc_trajectory):
    with pytest.raises(vp.ConditionCheckError):
        vp.linearize(family_pack["chart"], pvtol, tictoc_trajectory, n_grid=8)


def test_linearize_rejects_a_non_finite_jacobian(pvtol, tictoc_chart, tictoc_trajectory):
    # NaN in one stencil row of the second node (29 rows a node) leaves
    # f(0, tau, 0) finite and small but a column of A at that node NaN.
    def accel(q, qd, u):
        qdd = pvtol.accel(q, qd, u)
        if np.ndim(qdd) == 2 and len(qdd) > 40:
            qdd[40] = math.nan
        return qdd

    broken = dataclasses.replace(pvtol, accel=accel)
    with pytest.raises(vp.ConvergenceError, match=r"not finite at tau = -2\.356194"):
        vp.linearize(tictoc_chart, broken, tictoc_trajectory, n_grid=8)


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


@pytest.mark.parametrize("orbit", ["tictoc", "family"])
def test_stable_subspace_matches_ordered_schur(request, orbit):
    if orbit == "tictoc":
        ltv = request.getfixturevalue("tictoc_ltv")
    else:
        ltv = request.getfixturevalue("family_pack")["ltv"]
    gains = request.getfixturevalue(f"{orbit}_gains")
    period_map = vp.transverse._ordered_product(
        vp.transverse._interval_maps(_hamiltonian(ltv), float(ltv.taus[0]), ltv.taus.size))
    assert _relative(gains.P[0], _schur_graph(period_map)) < 1e-12
    T, _, _ = schur(period_map, output="real", sort="iuc")
    # The entries of a period map fix its multipliers to about eps |Phi|: the
    # tic-toc's (|m| <= 5.5e-3 in a map of 1-norm about 3e3) only to about
    # 1e-13, which is also how far scipy's own Schur values lie from a
    # 40-digit eigensolve of the same map.
    gap = np.sort_complex(gains.multipliers) - np.sort_complex(np.linalg.eigvals(T[:5, :5]))
    assert np.abs(gap).max() <= 1e-14 * np.linalg.norm(period_map, 1)


def test_periodic_lqr_on_a_defective_multiplier():
    # A = -I + N is one 5 x 5 Jordan block: the stable multiplier exp(-2 pi) of
    # the Hamiltonian period map has a single eigenvector. With B = 0 the
    # Riccati equation is the Lyapunov equation A'P + PA + Q = 0.
    taus = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    A = -np.eye(5) + np.eye(5, k=1)
    model = vp.LtvModel(taus=taus, A=np.tile(A, (64, 1, 1)), B=np.zeros((64, 5, 2)), f0_max=0.0)
    gains = vp.periodic_lqr(model)
    expected = solve_continuous_lyapunov(A.T, -np.eye(5))
    assert max(_relative(P, expected) for P in gains.P) < 1e-10
    # Rounding splits a five-fold defective eigenvalue by about eps^(1/5).
    assert np.abs(gains.multipliers - math.exp(-2.0 * math.pi)).max() < 1e-3


def test_periodic_lqr_rejects_a_multiplier_on_the_unit_circle():
    # A rotation at rate 0.3 puts two pairs of Hamiltonian multipliers on the
    # unit circle; the sign iteration stops at its step bound.
    taus = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    A = np.diag([0.0, 0.0, -1.0, -1.0, -1.0])
    A[0, 1], A[1, 0] = 0.3, -0.3
    model = vp.LtvModel(taus=taus, A=np.tile(A, (64, 1, 1)), B=np.zeros((64, 5, 2)), f0_max=0.0)
    with pytest.raises(vp.ConvergenceError,
                       match=f"did not converge in {vp.transverse.SIGN_MAX_ITER} steps"):
        vp.periodic_lqr(model)


def test_periodic_lqr_rejects_an_overflowing_weight(tictoc_ltv):
    # A huge weight, or a huge model in the other period integrals, overflows
    # the Runge-Kutta products of the interval maps; their finiteness gate
    # raises, not a floating-point warning.
    cases = [lambda: vp.periodic_lqr(tictoc_ltv, Q=1e300 * np.eye(5)),
             lambda: vp.gramian(dataclasses.replace(tictoc_ltv, B=1e200 * tictoc_ltv.B)),
             lambda: vp.monodromy(dataclasses.replace(tictoc_ltv, A=1e300 * tictoc_ltv.A))]
    for period_integral in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(vp.ConvergenceError, match="not finite"):
                period_integral()


@pytest.mark.parametrize("weight", [
    {"R": np.zeros((2, 2))}, {"R": -np.eye(2)}, {"R": np.array([[1.0, 0.5], [0.0, 1.0]])},
    {"Q": np.eye(3)}, {"Q": np.triu(np.ones((5, 5)))}, {"Q": np.full((5, 5), np.nan)},
], ids=["R0", "R1", "R2", "Q0", "Q1", "Q2"])
def test_periodic_lqr_rejects_r_that_is_not_spd(tictoc_ltv, weight):
    # R must be symmetric positive definite, and Q finite and symmetric, each
    # of the model's size.
    with pytest.raises(vp.DomainError, match=f"{next(iter(weight))} must be"):
        vp.periodic_lqr(tictoc_ltv, **weight)


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


def test_monodromy_rejects_a_non_finite_start(tictoc_ltv, tictoc_gains):
    # The argument is at fault, not the period integral: a DomainError naming
    # t0, raised before the interval maps run.
    for bad in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(vp.DomainError, match="t0"):
                vp.monodromy(tictoc_ltv, tictoc_gains, t0=bad)


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


# -- the Runge-Kutta interval maps against an independent RK45 oracle ---------


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
    for step in (vp.transverse.INTERVAL_STEP, 0.5 * vp.transverse.INTERVAL_STEP):
        monkeypatch.setattr(vp.transverse, "INTERVAL_STEP", step)
        errors.append(_relative(vp.periodic_lqr(tictoc_ltv).P[0], reference))
    assert errors[1] * 8.0 <= errors[0]


def test_monodromy_off_knot_start(orbit_reference):
    # From t0 = 1.0 the steps straddle the spline knots; the multipliers of a
    # period map do not depend on where the period starts.
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    _, eig_knot = vp.monodromy(ltv, gains, t0=0.0)
    _, eig_off = vp.monodromy(ltv, gains, t0=1.0)
    assert np.abs(np.sort(np.abs(eig_knot)) - np.sort(np.abs(eig_off))).max() < 1e-8


# -- the graph-form Riccati sweep ----------------------------------------------


def test_riccati_graph_matches_period_map_from_each_node(orbit_reference):
    # P(tau_i) from the ordered Schur form of the period map started at node i,
    # without the backward recursion of `periodic_lqr`.
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    n_nodes = ltv.taus.size
    maps = vp.transverse._interval_maps(_hamiltonian(ltv), float(ltv.taus[0]), n_nodes)
    for i in range(0, n_nodes, n_nodes // 4):   # tic-toc: nodes 0, 128, 256, 384
        period_map = vp.transverse._ordered_product(np.roll(maps, -i, axis=0))
        assert _relative(gains.P[i], _schur_graph(period_map)) < 1e-9
