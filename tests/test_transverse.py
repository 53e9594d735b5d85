import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly
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
    # family chart's scalar phase-to-time map and the orbit's scalar quintic
    # table. One time, a float or an np.float64, sums its terms on Python
    # floats (`derivatives` at one float, nested lists); an array takes the
    # array branch. The value and its first two derivatives agree bit for bit
    # at random times, at every knot and across the wrap, and a call at one
    # time keeps the row's shape and numpy type.
    spline = {"k_of": tictoc_gains.k_of, "a_of": tictoc_ltv.a_of, "b_of": tictoc_ltv.b_of,
              "time_of_phase": family_pack["chart"]._time_of_phase,
              "orbit_table": family_pack["per"].table}[which]
    x = spline.breaks
    x0, span = x[0], x[-1] - x[0]
    rng = np.random.default_rng(29)
    times = np.concatenate([rng.uniform(x0 - span, x[-1] + span, 2000), x, x + span, x - span,
                            [np.nextafter(x0, -np.inf), np.nextafter(x[-1], np.inf),
                             3.0 * math.pi, -3.0 * math.pi]])
    rows = {count: spline.derivatives(times, count) for count in (0, 2)}
    for m, (t, row) in enumerate(zip(times, spline(times))):
        for at in (float(t), np.float64(t)):
            for count, expected in rows.items():
                value = spline.derivatives(at, count)
                assert type(value) is list
                assert all(type(v) is float for v in np.array(value, dtype=object).flat)
                assert np.array(value).shape == expected[m].shape
                assert np.array(value).tobytes() == expected[m].tobytes()
            called = spline(at)
            assert type(called) is type(row) and called.shape == row.shape
            assert called.tobytes() == row.tobytes()


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


def test_piecewise_polynomial_derivatives_match_scipy():
    # Value and first two derivatives of quintic pieces, scalar and vector
    # values, against scipy's periodic PPoly, across the wrap; one time keeps
    # the row's shape.
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.1, 1.0, 9))
    t = np.concatenate([x, rng.uniform(x[0] - 5.0, x[-1] + 5.0, 300)])
    for shape in ((), (3,)):
        c = rng.normal(size=(6, 8) + shape)
        table = vhcplan.numdiff.PeriodicPiecewisePolynomial(x, c)
        got = table.derivatives(t, 2)
        for nu in range(3):
            expected = PPoly(c, x, extrapolate="periodic")(t, nu)
            assert np.abs(got[..., nu] - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(table.derivatives(float(t[5]), 2), got[5])


def test_one_float_read_of_a_constant_piece_is_a_list_of_its_own():
    # A degree-0 piece leaves Horner's rule nothing to sum; a read at one float
    # still returns new lists, because the table keeps its rows for the next read.
    table = vhcplan.numdiff.PeriodicPiecewisePolynomial(
        np.array([0.0, 1.0, 2.0]), np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    value = table.derivatives(0.5, 0)
    value[0][0] = 9.0
    value[1] = [9.0]
    assert table.derivatives(0.5, 0) == [[1.0], [2.0]]
    assert np.array_equal(table(0.5), [1.0, 2.0])
    assert np.array_equal(table(np.array([0.5, 1.5, 2.5])), [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])


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


def _check_on_orbit(chart, orbit):
    taus = []
    for t in np.linspace(orbit.t0, orbit.t0 + orbit.period, 37, endpoint=False):
        tau, rho = chart.forward(*orbit.state_at(float(t)))
        assert np.abs(rho).max() < 1e-10
        taus.append(tau)
    assert np.all(np.diff(np.unwrap(taus)) > 0.0)


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


def test_chart_round_trip(tictoc_chart, check_round_trip):
    check_round_trip(tictoc_chart, np.random.default_rng(17), 50)


def test_family_chart_round_trip(family_pack, check_round_trip):
    check_round_trip(family_pack["chart"], np.random.default_rng(29), 30)


def test_chart_guess_is_exact_inverse(chart_cases):
    rho = np.array([0.1, -0.2, 0.3, 0.05, -0.4])
    for name, chart in chart_cases.items():
        q, qd = chart.invert_guess(0.7, rho)
        tau, rho_b = chart.forward(q, qd)
        assert abs(vp.wrap_angle(tau - 0.7)) < 1e-14, name
        assert np.abs(rho_b - rho).max() < 1e-14, name


def test_chart_rates_match_finite_differences(tictoc_chart, check_rates):
    check_rates(tictoc_chart, np.random.default_rng(23), 10, 1e-6)


def test_family_chart_rates(family_pack, check_rates):
    # The family chart's r*(tau) comes through the orbit's interpolated time of
    # a phase, whose slope noise bounds the achievable agreement.
    check_rates(family_pack["chart"], np.random.default_rng(31), 10, 5e-6)


def test_chart_rates_reject_the_reduced_plane_origin(chart_cases):
    # The phase and its rate are undefined where theta = theta' = 0.
    for chart in chart_cases.values():
        i, c, _ = chart.vhc.readback
        q, qd = np.full((2, 3), 0.3), np.full((2, 3), 0.1)
        q[1, i], qd[1, i] = c, 0.0
        with pytest.raises(vp.OutsideTubeError, match="origin"):
            chart.forward_rates(q, qd, np.zeros((2, 3)))


def test_chart_invert_rejects_points_outside_tube(chart_cases):
    for chart in chart_cases.values():
        with pytest.raises(vp.OutsideTubeError):
            vp.chart_invert(chart, 0.0, np.array([2.0, 0.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_chart_invert_rejects_a_phase_that_is_not_finite(chart_cases, bad):
    # A DomainError naming tau, before any chart call: no RuntimeWarning from
    # wrap_angle, and no OutsideTubeError for a residual of nan.
    for chart in chart_cases.values():
        with pytest.raises(vp.DomainError, match="tau must be finite"):
            vp.chart_invert(chart, bad, np.zeros(5))
        with pytest.raises(vp.DomainError, match="tau must be finite"):
            vp.chart_invert(chart, np.array([0.3, bad]), np.zeros((2, 5)))


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
    # The planned orbit's theta'' follows -sin t to 1e-11 next to the crossings
    # as well (singular_solver); the gap reads about 1e-11 at every tau.
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


def test_family_chart_reads_one_phase_time_as_a_float(family_pack):
    # One float phase reads the orbit's time by the list read of `derivatives`,
    # a Python float, while `__call__` keeps its np.float64; the closed loop's
    # tau, rho and u* then have the bits the `__call__` path gives.
    chart = family_pack["chart"]
    by_call = copy.copy(chart)
    by_call._time = chart._time_of_phase
    assert type(chart._time(0.3)) is float and type(by_call._time(0.3)) is np.float64
    rng = np.random.default_rng(59)
    taus = rng.uniform(-math.pi, math.pi, 1000)
    q, qd = vp.chart_invert(chart, taus, rng.uniform(-0.05, 0.05, (1000, 5)))
    for point in zip(q.tolist(), qd.tolist()):
        tau, rho = chart.forward(*point)
        assert (tau, rho) == by_call.forward(*point)
        assert chart.reference_input(tau) == by_call.reference_input(tau)


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
    # The complex-step A against `central_derivative`'s at step 1e-3, whose
    # O(h^4) truncation and rounding are both far below 2e-10 (2.6e-12 tic-toc,
    # 2.5e-12 family at n_grid 128). The generic solve (accel=None) takes A by
    # `central_derivative`; B is exact in its step.
    chart, traj = ((tictoc_chart, tictoc_trajectory) if which == "tictoc"
                   else (family_pack["chart"], family_pack["traj"]))
    ltv = vp.linearize(chart, pvtol, traj, n_grid=64)
    monkeypatch.setattr(vhcplan.numdiff, "DIFF_STEP", 1e-3)
    ref = vp.linearize(chart, dataclasses.replace(pvtol, accel=None, inverse=None), traj, n_grid=64)
    assert ref.derivative_gap is None and ltv.derivative_gap <= 1e-10
    for got, want in ((ltv.A, ref.A), (ltv.B, ref.B)):
        assert np.abs(got - want).max() <= 2e-10 * np.abs(want).max()


@pytest.mark.parametrize("which", ["tictoc", "family"])
def test_complex_step_a_is_insensitive_to_an_ulp_of_the_reference_input(
        which, monkeypatch, pvtol, tictoc_chart, tictoc_trajectory, family_pack):
    # One ulp of u* moves the complex-step A by rounding alone (1.6e-16 tic-toc
    # and 6.8e-16 family, of max|A|); `central_derivative`'s A moved by 1.1e-12
    # and 1.8e-12.
    chart, traj = ((tictoc_chart, tictoc_trajectory) if which == "tictoc"
                   else (family_pack["chart"], family_pack["traj"]))
    ltv = vp.linearize(chart, pvtol, traj, n_grid=128)
    reference_input = chart.reference_input
    monkeypatch.setattr(chart, "reference_input", lambda tau: reference_input(tau) * (1 + 2.2e-16))
    moved = vp.linearize(chart, pvtol, traj, n_grid=128)
    assert np.abs(moved.A - ltv.A).max() <= 1e-14 * np.abs(ltv.A).max()


def test_linearize_rejects_a_chart_that_drops_the_complex_step(pvtol, tictoc_chart,
                                                              tictoc_trajectory):
    # With the imaginary part dropped before `invert_guess` (a chart that casts
    # to real, say), A reads 0; the finite-difference A at the controls catches it.
    class RealChart:
        def __init__(self, chart):
            self._chart = chart

        def invert_guess(self, tau, rho):
            return self._chart.invert_guess(tau, rho.real)

        def __getattr__(self, name):
            return getattr(self._chart, name)

    with pytest.raises(vp.ConditionCheckError, match="derivative_gap"):
        vp.linearize(RealChart(tictoc_chart), pvtol, tictoc_trajectory, n_grid=64)


def test_linearize_rejects_an_accel_that_drops_the_complex_step(pvtol, tictoc_chart,
                                                               tictoc_trajectory):
    # A closed-form accel that writes into a float buffer drops the imaginary
    # part with a ComplexWarning, which the complex step turns into an error.
    def accel(q, qd, u):
        out = np.zeros(np.shape(q))
        out[...] = pvtol.accel(q, qd, u)
        return out

    broken = dataclasses.replace(pvtol, accel=accel)
    with pytest.raises(vp.ModelInvariantError, match="imaginary part"):
        vp.linearize(tictoc_chart, broken, tictoc_trajectory, n_grid=6)


def test_generic_solve_linearizes_as_the_closed_form_model(pvtol, tictoc_chart, tictoc_trajectory):
    # Without a closed-form accel, A comes from `central_derivative` at every node.
    generic = dataclasses.replace(pvtol, accel=None, inverse=None)
    ltv = vp.linearize(tictoc_chart, generic, tictoc_trajectory, n_grid=64)
    ref = vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=64)
    assert ltv.derivative_gap is None and ltv.reversal_gap <= vp.transverse.REVERSAL_TOL
    assert np.abs(ltv.A - ref.A).max() <= 1e-10 * np.abs(ref.A).max()
    assert np.abs(ltv.B - ref.B).max() <= 1e-14 * np.abs(ref.B).max()


def test_linearize_rejects_mismatched_chart(pvtol, family_pack, tictoc_trajectory):
    with pytest.raises(vp.ConditionCheckError):
        vp.linearize(family_pack["chart"], pvtol, tictoc_trajectory, n_grid=8)


def test_linearize_rejects_a_non_finite_jacobian(pvtol, tictoc_chart, tictoc_trajectory):
    # NaN in row 7 of the complex step (5 rows a node), the third rho step of
    # the second node, leaves f(0, tau, 0) finite and small but a column of A
    # at that node NaN.
    def accel(q, qd, u):
        qdd = pvtol.accel(q, qd, u)
        if np.iscomplexobj(qdd):
            qdd[7] = math.nan
        return qdd

    broken = dataclasses.replace(pvtol, accel=accel)
    with pytest.raises(vp.ConvergenceError, match=r"not finite at tau = -2\.356194"):
        vp.linearize(tictoc_chart, broken, tictoc_trajectory, n_grid=8)


@pytest.mark.parametrize("n_grid", [0, -4, 2.5, True, "64"])
def test_linearize_rejects_a_grid_that_is_not_a_positive_integer(pvtol, tictoc_chart,
                                                                 tictoc_trajectory, n_grid):
    with pytest.raises(vp.DomainError, match="n_grid must be a positive integer"):
        vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=n_grid)


@pytest.mark.parametrize("orbit", ["tictoc", "family"])
def test_linearize_input_columns_are_exact_in_the_step(orbit, pvtol, tictoc_chart,
                                                       tictoc_trajectory, tictoc_ltv,
                                                       family_pack, check_input_columns):
    # The tic-toc and the default family orbit at n_grid 512, as the atlas
    # orbits at 128: B by the input rule is the old stencil's within 1e-9 and
    # the same at h and 10 h within 1e-10, relative to max|B|.
    if orbit == "tictoc":
        check_input_columns(tictoc_chart, pvtol, tictoc_trajectory, tictoc_ltv)
    else:
        chart, traj = family_pack["chart"], family_pack["traj"]
        check_input_columns(chart, pvtol, traj, vp.linearize(chart, pvtol, traj, n_grid=512))


def test_family_linearize_looks_up_the_orbit_once(monkeypatch, pvtol, family_pack,
                                                 linearize_by_chart_invert):
    # The 3 real and 5 complex points of a node share one phase, so each of the
    # two batches' `invert_guess` looks up r* once per node; the chart's forward
    # check and its rates share one lookup per point; the central differences at
    # the 4 control nodes take 23 points and one phase each; the chart check on
    # the orbit takes 8 points.
    chart = family_pack["chart"]
    orbit_radial, looked_up = vp.FamilyChart._orbit_radial, []

    def counting(self, tau):
        looked_up.append(np.size(tau))
        return orbit_radial(self, tau)

    monkeypatch.setattr(vp.FamilyChart, "_orbit_radial", counting)
    ltv = vp.linearize(chart, pvtol, family_pack["traj"], n_grid=64)
    assert sum(looked_up) <= 64 * 8 + 2 * 64 + 4 * (23 + 1) + 8
    monkeypatch.undo()
    # The nodes with |tau| <= pi/2 are computed as the full path computes them,
    # bit for bit (the self-mirror ones less their antisymmetric part), and the
    # others are their exact mirror images -R A R and -R B.
    for model in (ltv, family_pack["ltv"]):
        n = model.taus.size
        A, B = linearize_by_chart_invert(chart, pvtol, n)
        inner = np.arange(n // 4 + 1, 3 * n // 4)
        assert np.array_equal(model.A[inner], A[inner]) and np.array_equal(model.B[inner], B[inner])
        rev = vp.transverse._reversal_signs(5)
        mirror = (n // 2 - np.arange(n)) % n
        assert np.array_equal(model.A[mirror], -np.outer(rev, rev) * model.A)
        assert np.array_equal(model.B[mirror], -rev[:, None] * model.B)
        for k in (n // 4, 3 * n // 4):
            assert np.array_equal(model.A[k], np.where(np.outer(rev, rev) < 0, A[k], 0.0))
            assert np.array_equal(model.B[k], np.where(rev[:, None] < 0, B[k], 0.0))


@pytest.mark.parametrize("orbit", ["tictoc", "family"])
def test_mirror_matches_the_full_grid(orbit, pvtol, tictoc_chart, tictoc_ltv, family_pack,
                                      check_mirror):
    # At the CLI's n_grid of 512: the mirror-filled linearization and its
    # half-period integrals against every node computed and the whole period.
    if orbit == "tictoc":
        chart, ltv = tictoc_chart, tictoc_ltv
    else:
        chart = family_pack["chart"]
        ltv = vp.linearize(chart, pvtol, family_pack["traj"], n_grid=512)
    check_mirror(chart, pvtol, ltv)
    # A zero the fill multiplies by -1 is +0.0, as on the full grid: ltv.csv prints no "-0".
    for M in (ltv.A, ltv.B):
        assert not np.signbit(M[M == 0.0]).any()


def test_linearize_rejects_a_broken_mirror(monkeypatch, pvtol, tictoc_chart, tictoc_trajectory):
    # With one sign of R flipped the filled nodes are no mirror images of the
    # computed ones: the control nodes computed in full catch it.
    signs = vp.transverse._reversal_signs

    def broken(n_rho):
        out = signs(n_rho)
        out[0] = -out[0]
        return out

    monkeypatch.setattr(vp.transverse, "_reversal_signs", broken)
    with pytest.raises(vp.ConditionCheckError, match="reversal_gap"):
        vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=64)


def test_period_integrals_mirror_only_exact_images(tictoc_ltv):
    # The period integrals take the mirror rule only where the samples are
    # exact mirror images and, for the LQR, R Q R = Q; one ulp off, a constant
    # A that is not reversible, or Q coupling an error to a rate: the whole period.
    signs = vp.transverse._mirror_signs
    assert np.array_equal(signs(tictoc_ltv, 2.0 * np.eye(5)), [1, 1, -1, -1, 1, -1, -1, 1, 1, -1])
    A = tictoc_ltv.A.copy()
    A[3, 0, 0] = np.nextafter(A[3, 0, 0], math.inf)
    assert signs(dataclasses.replace(tictoc_ltv, A=A)) is None
    jordan = np.tile(-np.eye(5) + np.eye(5, k=1), (512, 1, 1))
    constant = vp.LtvModel(taus=tictoc_ltv.taus, A=jordan, B=np.zeros((512, 5, 2)), f0_max=0.0)
    assert signs(constant) is None
    coupled = np.eye(5)
    coupled[0, 2] = coupled[2, 0] = 0.1
    assert signs(tictoc_ltv, coupled) is None
    gains = vp.periodic_lqr(tictoc_ltv, Q=coupled)
    assert gains.sweeps == 1 and np.abs(vp.monodromy(tictoc_ltv, gains)[1]).max() < 1.0


@pytest.mark.parametrize("n_grid", [1, 2, 3, 6, 10])
def test_linearize_computes_every_node_off_a_grid_of_four(n_grid, pvtol, tictoc_chart,
                                                          tictoc_trajectory):
    ltv = vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=n_grid)
    assert ltv.reversal_gap is None and vp.transverse._mirror_signs(ltv) is None


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
        vp.transverse._interval_maps(*_hamiltonian(ltv), float(ltv.taus[0]), ltv.taus.size))
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
    # t0, raised before any spline is sampled.
    sampled = []
    model, gains = copy.copy(tictoc_ltv), copy.copy(tictoc_gains)
    model.a_grid = model.b_grid = gains.k_grid = lambda *args: sampled.append(args)
    for bad in (math.nan, math.inf, -math.inf):
        for law in (None, gains):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(vp.DomainError, match="t0"):
                    vp.monodromy(model, law, t0=bad)
    assert sampled == []


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


def _extended_grid_values(spline, t0, k):
    """The spline at t0 + j 2 pi/(n k), j = 0, ..., n k, in extended precision: each
    phase, its piece and its offset, and the piece's cubic in long double."""
    ld = np.longdouble
    x, c = spline.breaks.astype(ld), spline._c.astype(ld)
    n = x.size - 1
    t = ld(t0) + np.arange(n * k + 1, dtype=ld) * (ld(2.0 * math.pi) / (n * k))
    t = x[0] + (t - x[0]) % (x[-1] - x[0])
    piece = np.minimum(np.searchsorted(x, t, side="right") - 1, n - 1)
    d = (t - x[piece]).reshape((-1,) + (1,) * (c.ndim - 2))
    value = c[-1, piece]
    for ck in c[-2::-1]:
        value = value * d + ck[piece]
    return value


@pytest.mark.parametrize("which", ["a_of", "b_of", "k_of"])
def test_spline_grid_matches_the_spline(which, tictoc_ltv, tictoc_gains):
    # The period integrals read the splines through `grid`, which evaluates
    # each piece at fixed in-piece offsets: it must give the spline's values
    # at the grid phases, from knots and from between them, before the period
    # and after it, for A (5, 5), B (5, 2) and K (2, 5). The 1e-14 bound holds
    # against the cubic in extended precision. An array call rounds each phase
    # a few times on its way into the base period, and A's slope (about
    # 9 max|A| per radian) turns that alone into gaps of 1.2e-14 max|A| from
    # the exact values (the grid's are 3.6e-15), so the call gets 3e-14.
    spline = {"a_of": tictoc_ltv.a_of, "b_of": tictoc_ltv.b_of, "k_of": tictoc_gains.k_of}[which]
    n = spline.breaks.size - 1
    scale = np.abs(spline._c[0]).max()      # max|y|: the cubics' constant terms are the samples
    for t0 in (-math.pi, 0.0, 1.0, -3.7, 7.0, -10.0):
        for k in (1, 2, 4, 32):
            values = spline.grid(t0, k)
            assert values.shape == (n * k + 1,) + spline._c.shape[2:]
            exact = _extended_grid_values(spline, t0, k)
            assert np.abs(values - exact).max() <= 1e-14 * scale
            call = spline(t0 + 2.0 * math.pi * np.arange(n * k + 1) / (n * k))
            assert np.abs(values - call).max() <= 3e-14 * scale
            assert values[-1].tobytes() == values[0].tobytes()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(vp.DomainError, match="t0"):
            spline.grid(bad, 4)


# -- the Runge-Kutta interval maps against an independent RK45 oracle ---------


def _rk45_period_map(coefficient, t0, n):
    """Phi(t0 + 2 pi, t0) of Phi' = M(s) Phi by adaptive RK45 at tolerance 1e-12."""
    sol = solve_ivp(lambda s, y: (coefficient(s) @ y.reshape(n, n)).ravel(),
                    (t0, t0 + 2.0 * math.pi), np.eye(n).ravel(), rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def _hamiltonian(ltv):
    """The samplers and assembler of the LQR Hamiltonian system (Q = I, R = I) for
    `_interval_maps`, with `periodic_lqr`'s arithmetic."""
    def assemble(A, B):
        M = np.empty((len(A), 10, 10))
        M[:, :5, :5] = A
        M[:, :5, 5:] = -B @ B.swapaxes(1, 2)
        M[:, 5:, :5] = -np.eye(5)
        M[:, 5:, 5:] = -A.swapaxes(1, 2)
        return M

    return (ltv.a_grid, ltv.b_grid), assemble


def _schur_graph(period_map):
    """P = Y X^{-1} of the stable subspace [X; Y] of a Hamiltonian period map (ordered Schur)."""
    _, Z, n_stable = schur(period_map, output="real", sort="iuc")
    assert n_stable == 5
    P = np.linalg.solve(Z[:5, :5].T, Z[5:, :5].T)
    return 0.5 * (P + P.T)


def _rk45_riccati_p0(ltv):
    """P at the first grid node from the stable Schur subspace of the RK45 Hamiltonian map."""
    _, assemble = _hamiltonian(ltv)
    return _schur_graph(_rk45_period_map(
        lambda s: assemble(ltv.a_of(s)[None], ltv.b_of(s)[None])[0], float(ltv.taus[0]), 10))


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


def test_interval_maps_do_not_depend_on_the_block(orbit_reference, monkeypatch):
    # INTERVAL_BLOCK bounds the working memory only: one step per block, the
    # default and the whole period in one block give the same maps, bit for
    # bit, from a knot and from between knots (where the grid wraps mid-block).
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    cases = [(*_hamiltonian(ltv), float(ltv.taus[0])),
             ((ltv.a_grid, ltv.b_grid, gains.k_grid), lambda A, B, K: A + B @ K, 1.0)]
    for samplers, assemble, t0 in cases:
        maps = []
        for block in (1, 64, 4096):
            monkeypatch.setattr(vp.transverse, "INTERVAL_BLOCK", block)
            maps.append(vp.transverse._interval_maps(samplers, assemble, t0, ltv.taus.size))
        assert np.array_equal(maps[0], maps[1]) and np.array_equal(maps[0], maps[2])


@pytest.mark.parametrize("orbit", ["tictoc", "family"])
def test_period_integrals_of_traced_copies(request, orbit):
    # A benchmark tracer swaps a_of, b_of and k_of on copies of the model and
    # the gains for plain counting functions of one argument. The period
    # integrals read the samplers bound at construction, so the copies give
    # the same results, bit for bit.
    ltv = (request.getfixturevalue("tictoc_ltv") if orbit == "tictoc"
           else request.getfixturevalue("family_pack")["ltv"])
    gains = request.getfixturevalue(f"{orbit}_gains")

    def plain(f):
        return lambda tau: f(tau)

    traced_ltv, traced_gains = copy.copy(ltv), copy.copy(gains)
    traced_ltv.a_of, traced_ltv.b_of = plain(ltv.a_of), plain(ltv.b_of)
    traced_gains.k_of = plain(gains.k_of)
    assert np.array_equal(vp.gramian(traced_ltv), vp.gramian(ltv))
    ours, theirs = vp.periodic_lqr(traced_ltv), vp.periodic_lqr(ltv)
    for name in ("P", "K", "multipliers"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    for traced, original in ((None, None), (traced_gains, gains)):
        for got, expected in zip(vp.monodromy(traced_ltv, traced), vp.monodromy(ltv, original)):
            assert np.array_equal(got, expected)


def test_monodromy_rejects_gains_on_another_grid(tictoc_ltv, tictoc_gains):
    # Gains on a grid of their own would be read at the model's knots as if
    # they were its own: a DomainError naming both sizes.
    coarse = vp.LtvModel(taus=tictoc_ltv.taus[::8], A=tictoc_ltv.A[::8], B=tictoc_ltv.B[::8],
                         f0_max=0.0)
    with pytest.raises(vp.DomainError, match="64 grid nodes .* 512 nodes"):
        vp.monodromy(tictoc_ltv, vp.periodic_lqr(coarse))
    shifted = dataclasses.replace(tictoc_gains, taus=tictoc_gains.taus + 1e-3)
    with pytest.raises(vp.DomainError, match="512 grid nodes .* 512 nodes"):
        vp.monodromy(tictoc_ltv, shifted)


# -- the graph-form Riccati sweep ----------------------------------------------


def test_riccati_graph_matches_period_map_from_each_node(orbit_reference):
    # P(tau_i) from the ordered Schur form of the period map started at node i,
    # without the backward recursion of `periodic_lqr`.
    ltv, gains = orbit_reference["ltv"], orbit_reference["gains"]
    n_nodes = ltv.taus.size
    maps = vp.transverse._interval_maps(*_hamiltonian(ltv), float(ltv.taus[0]), n_nodes)
    for i in range(0, n_nodes, n_nodes // 4):   # tic-toc: nodes 0, 128, 256, 384
        period_map = vp.transverse._ordered_product(np.roll(maps, -i, axis=0))
        assert _relative(gains.P[i], _schur_graph(period_map)) < 1e-9


def _node_by_node_sweep(model):
    """P and K = -B^T P (Q = I, R = I) on the grid by one backward sweep that
    walks the nodes one at a time: one inverted interval map and one 5 x 5
    solve per node, from the stable-subspace graph at the first node. The maps
    are those `periodic_lqr` sweeps, mirror-filled on a mirror-symmetric model."""
    n = 5
    period_map, back = vp.transverse._period_and_inverses(
        *_hamiltonian(model), float(model.taus[0]), np.empty((model.taus.size, 10, 10)),
        vp.transverse._mirror_signs(model))
    Z, _ = vp.transverse._stable_subspace(period_map)
    P_next = np.linalg.solve(Z[:n].T, Z[n:].T)
    P_next = 0.5 * (P_next + P_next.T)
    P = np.empty((model.taus.size, n, n))
    for i in reversed(range(model.taus.size)):
        V = back[i, :, :n] + back[i, :, n:] @ P_next
        P_next = P[i] = np.linalg.solve(V[:n].T, V[n:].T)
    P = 0.5 * (P + P.swapaxes(1, 2))
    return P, -model.B.swapaxes(1, 2) @ P


@pytest.mark.parametrize("orbit", ["tictoc", "family"])
def test_periodic_lqr_matches_node_by_node_sweep(orbit, pvtol, tictoc_chart, tictoc_trajectory,
                                                 family_pack):
    chart, traj = ((tictoc_chart, tictoc_trajectory) if orbit == "tictoc"
                   else (family_pack["chart"], family_pack["traj"]))
    for n_grid in (64, 96, 512):     # 96: identity maps fill the first block of 64
        ltv = vp.linearize(chart, pvtol, traj, n_grid=n_grid)
        gains = vp.periodic_lqr(ltv)
        assert gains.sweeps == 1
        P, K = _node_by_node_sweep(ltv)
        assert _relative(gains.P, P) <= 1e-13 and _relative(gains.K, K) <= 1e-13


def _with_broken_interval_map(monkeypatch, node, rows, value):
    """Set the given rows of the inverted interval map `node` to value once
    `_period_and_inverses` has filled them, computed or mirrored, before the sweeps."""
    period_and_inverses = vp.transverse._period_and_inverses

    def broken(*args):
        period_map, back = period_and_inverses(*args)
        back[node, rows] = value
        return period_map, back

    monkeypatch.setattr(vp.transverse, "_period_and_inverses", broken)


# The nodes with |tau| <= pi/2 (128 to 384 of 512, 24 to 72 of 96) are computed,
# the others filled by the mirror: 300 and 256 are computed, 63 and 20 filled.
@pytest.mark.parametrize("n_grid, node", [(512, 300), (512, 256), (512, 63), (96, 20)])
def test_periodic_lqr_names_the_node_of_a_singular_x(monkeypatch, pvtol, tictoc_chart,
                                                      tictoc_trajectory, tictoc_ltv, n_grid, node):
    # Zero state rows of the inverted map at a node make X = 0 there; the
    # backward sweep meets it before the nodes it reaches later.
    ltv = (tictoc_ltv if n_grid == 512
           else vp.linearize(tictoc_chart, pvtol, tictoc_trajectory, n_grid=n_grid))
    _with_broken_interval_map(monkeypatch, node, slice(0, 5), 0.0)
    with pytest.raises(vp.ConvergenceError, match=f"singular X at tau = {ltv.taus[node]:.6f}"):
        vp.periodic_lqr(ltv)


def test_periodic_lqr_names_the_last_node_of_a_non_finite_graph(monkeypatch, tictoc_ltv):
    for node in (300, 63):      # computed, then filled by the mirror
        with monkeypatch.context() as patch:
            _with_broken_interval_map(patch, node, slice(None), math.nan)
            with pytest.raises(vp.ConvergenceError,
                               match=f"P is not finite at tau = {tictoc_ltv.taus[node]:.6f}"):
                vp.periodic_lqr(tictoc_ltv)


@pytest.mark.parametrize("max_sweeps", [0, -1, 2.5, True])
def test_periodic_lqr_rejects_sweeps_that_are_not_a_positive_integer(tictoc_ltv, max_sweeps):
    with pytest.raises(vp.DomainError, match="max_sweeps must be a positive integer"):
        vp.periodic_lqr(tictoc_ltv, max_sweeps=max_sweeps)
