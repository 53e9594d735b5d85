import math

import numpy as np
import pytest

import vhcplan as vp
from vhcplan.mech import MechanicalSystem


def test_orbit_error_at_perturbed_start(tictoc_chart):
    err = np.linalg.norm(tictoc_chart.forward(np.array([0.1, -0.5, 0.0]), np.zeros(3))[1])
    expected = math.sqrt(0.495 ** 2 + (0.5 * math.pi - math.atan(0.2)) ** 2 + 0.81)
    assert abs(err - expected) < 1e-12


def test_closed_loop_converges(sim_result):
    res = sim_result
    norms = np.linalg.norm(res.rho, axis=1)
    assert norms[-1] < 1e-3
    assert np.all(np.isfinite(res.q)) and np.all(np.isfinite(res.u))
    assert np.all(np.isfinite(res.rho))
    # Monotone decay per period.
    steps_per_period = int(round(2.0 * math.pi / res.dt))
    assert norms[steps_per_period] < 0.1 * norms[0]
    assert norms[2 * steps_per_period] < 0.1 * norms[steps_per_period]


def test_simulation_shapes_and_metadata(sim_result):
    res = sim_result
    n = int(round(res.metadata["horizon"] / res.dt)) + 1
    assert res.t.shape == (n,)
    assert res.q.shape == (n, 3) and res.qdot.shape == (n, 3)
    assert res.u.shape == (n, 2) and res.rho.shape == (n, 5)
    assert res.metadata["stage_feedback"] is True
    assert res.metadata["open_loop"] is False
    assert res.t[1] - res.t[0] == res.dt


def test_simulation_is_deterministic(pvtol, tictoc_chart, tictoc_gains):
    q0 = np.array([0.1, -0.5, 0.0])
    a = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3),
                           horizon=2.0 * math.pi)
    b = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3),
                           horizon=2.0 * math.pi)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.rho, b.rho)


def test_open_loop_does_not_converge(pvtol, tictoc_chart):
    res = vp.run_closed_loop(pvtol, tictoc_chart, None,
                             np.array([0.1, -0.5, 0.0]), np.zeros(3))
    assert np.linalg.norm(res.rho[-1]) > 1.0
    assert res.metadata["open_loop"] is True


def test_zero_order_hold_still_converges(pvtol, tictoc_chart, tictoc_gains):
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains,
                             np.array([0.1, -0.5, 0.0]), np.zeros(3),
                             stage_feedback=False)
    assert np.linalg.norm(res.rho[-1]) < 1e-1


def test_divergence_guard(pvtol, tictoc_chart, tictoc_ltv):
    destabilizing = vp.GainSchedule(
        taus=tictoc_ltv.taus,
        K=np.tile(np.full((2, 5), 50.0), (tictoc_ltv.taus.size, 1, 1)),
        P=np.tile(np.eye(5), (tictoc_ltv.taus.size, 1, 1)),
        sweeps=1, fixed_point_gap=0.0, multipliers=np.zeros(5))
    with pytest.raises(vp.ConvergenceError):
        vp.run_closed_loop(pvtol, tictoc_chart, destabilizing,
                           np.array([0.1, -0.5, 0.0]), np.zeros(3))
    # A state that is not finite trips the guard before any model call.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(vp.ConvergenceError, match=r"t = 0\.000"):
            vp.run_closed_loop(pvtol, tictoc_chart, destabilizing,
                               np.array([0.1, bad, 0.0]), np.zeros(3))
        with pytest.raises(vp.ConvergenceError, match=r"t = 0\.000"):
            vp.run_closed_loop(pvtol, tictoc_chart, None, np.zeros(3),
                               np.array([0.0, 0.0, bad]))


def test_family_closed_loop(pvtol, family_pack, family_gains):
    _, eig = vp.monodromy(family_pack["ltv"], family_gains)
    assert np.abs(eig).max() < 1.0
    traj, chart = family_pack["traj"], family_pack["chart"]
    q0, qd0 = traj.state_at(0.1)
    q0 = q0 + np.array([0.01, -0.01, 0.0])
    res = vp.run_closed_loop(pvtol, chart, family_gains, q0, qd0, dt=0.002,
                             horizon=18.0 * traj.period)
    start = np.linalg.norm(res.rho[0])
    end = np.linalg.norm(res.rho[-1])
    assert end < 0.2 * start


def test_closed_loop_equals_rk4_on_eval_accel(pvtol, tictoc_chart, tictoc_gains):
    # The loop checks once per run or stage and calls the solve alone; the
    # reference calls the checked `eval_accel` at every stage.
    dt, q0 = 0.01, np.array([0.1, -0.5, 0.0])
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3), dt=dt,
                             horizon=math.pi)

    def deriv(y):
        tau, rho = tictoc_chart.forward(y[:3], y[3:])
        u = tictoc_chart.reference_input(tau) + tictoc_gains.k_of(tau) @ rho
        return np.concatenate([y[3:], vp.eval_accel(pvtol, y[:3], y[3:], u)])

    y = np.concatenate([q0, np.zeros(3)])
    for k in range(res.t.size):
        assert np.array_equal(res.q[k], y[:3]) and np.array_equal(res.qdot[k], y[3:])
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_closed_loop_keeps_the_model_checks(pvtol, tictoc_chart):
    q0, qd0 = np.array([0.1, -0.5, 0.0]), np.zeros(3)
    # Infinite gravity: the first stage is finite, its acceleration is not, so
    # the second stage state is not finite.
    unbounded = MechanicalSystem(n=3, mass_matrix=pvtol.mass_matrix, coriolis=pvtol.coriolis,
                                 gravity=lambda q: np.array([0.0, np.inf, 0.0]),
                                 input_map=pvtol.input_map, name="unbounded")
    with pytest.raises(vp.ModelInvariantError, match="finite"):
        vp.run_closed_loop(unbounded, tictoc_chart, None, q0, qd0)
    with pytest.raises(vp.ModelInvariantError, match="shape"):
        vp.run_closed_loop(pvtol, tictoc_chart, None, q0[:2], qd0)
    # A mass matrix with a NaN entry: the model error, not a LAPACK warning.
    nan_mass = MechanicalSystem(n=3, mass_matrix=lambda q: np.full((3, 3), np.nan),
                                coriolis=pvtol.coriolis, gravity=pvtol.gravity,
                                input_map=pvtol.input_map, name="nan_mass")
    with pytest.raises(vp.ModelInvariantError, match="mass matrix must be finite"):
        vp.run_closed_loop(nan_mass, tictoc_chart, None, q0, qd0)

    class WideInputChart(vp.TicTocChart):
        def reference_input(self, tau):
            return np.zeros(3)

    with pytest.raises(ValueError, match="u must have shape"):
        vp.run_closed_loop(pvtol, WideInputChart(), None, q0, qd0)
