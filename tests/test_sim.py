import copy
import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import vhcplan as vp
import vhcplan.sim
from vhcplan.cli import main
from vhcplan.mech import MechanicalSystem
from vhcplan.sim import rk45_dense, rk45_steps


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


def test_removed_hold_and_bad_output_grids_raise(pvtol, tictoc_chart, tictoc_gains):
    q0, qd0 = np.array([0.1, -0.5, 0.0]), np.zeros(3)
    with pytest.raises(vp.DomainError, match="zero-order hold was removed"):
        vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, qd0, stage_feedback=False)
    # Each is rejected before the rows are allocated: at dt 1e-15 they would
    # take 134 PiB.
    for dt, horizon, match in ((0.0, 1.0, "dt must"), (-0.01, 1.0, "dt must"),
                               (np.nan, 1.0, "dt must"), (np.inf, 1.0, "dt must"),
                               (0.01, np.inf, "SIM_MAX_ROWS"), (0.01, -1.0, "SIM_MAX_ROWS"),
                               (0.01, np.nan, "SIM_MAX_ROWS"),
                               (1e-15, 6.0 * math.pi, "SIM_MAX_ROWS"),
                               (1e-300, 1e300, "SIM_MAX_ROWS")):
        with pytest.raises(vp.DomainError, match=match):
            vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, qd0, dt=dt,
                               horizon=horizon)
    assert vhcplan.sim.SIM_MAX_ROWS >= 100 * 4242


def test_divergence_guard(pvtol, tictoc_chart, tictoc_ltv):
    destabilizing = vp.GainSchedule(
        taus=tictoc_ltv.taus,
        K=np.tile(np.full((2, 5), 50.0), (tictoc_ltv.taus.size, 1, 1)),
        P=np.tile(np.eye(5), (tictoc_ltv.taus.size, 1, 1)),
        sweeps=1, fixed_point_gap=0.0, multipliers=np.zeros(5))
    # The spin-up shrinks the steps below SIM_MIN_STEP long before a state
    # entry passes 1e6.
    with pytest.raises(vp.ConvergenceError, match="diverged") as info:
        vp.run_closed_loop(pvtol, tictoc_chart, destabilizing,
                           np.array([0.1, -0.5, 0.0]), np.zeros(3))
    assert 0.0 < info.value.diagnostics["time"] < 0.2
    # A state that is not finite trips the guard before any model call.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(vp.ConvergenceError, match=r"t = 0\.000"):
            vp.run_closed_loop(pvtol, tictoc_chart, destabilizing,
                               np.array([0.1, bad, 0.0]), np.zeros(3))
        with pytest.raises(vp.ConvergenceError, match=r"t = 0\.000"):
            vp.run_closed_loop(pvtol, tictoc_chart, None, np.zeros(3),
                               np.array([0.0, 0.0, bad]))


@pytest.mark.parametrize("position", range(6))
def test_stage_state_bound_at_every_position(monkeypatch, pvtol, tictoc_chart, tictoc_gains,
                                             position):
    # The right-hand side tests its state in one pass of max, min and sum;
    # max and min skip a NaN that is not first, which the sum catches. One
    # stage state per value, the value at `position` of the initial state.
    y0 = [0.1, -0.5, 0.0, 0.0, 0.0, 0.0]
    expected = [(math.nan, vp.ModelInvariantError, "finite"),
                (math.inf, vp.ModelInvariantError, "finite"),
                (-math.inf, vp.ModelInvariantError, "finite"),
                (2e6, vp.ConvergenceError, "diverged"), (-2e6, vp.ConvergenceError, "diverged"),
                (1e6, None, None), (-1e6, None, None)]
    run = functools.partial(vp.run_closed_loop, pvtol, tictoc_chart, tictoc_gains,
                            np.array(y0[:3]), np.zeros(3), horizon=0.0)
    for value, error, match in expected:
        state = y0[:position] + [value] + y0[position + 1:]
        calls = []

        def one_stage(fun, *args):
            calls.append(fun(0.0, state))
            return iter(())

        monkeypatch.setattr(vhcplan.sim, "rk45_steps", one_stage)
        if error is None:
            run()
            assert len(calls) == 1
        else:
            with pytest.raises(error, match=match):
                run()


def test_coarse_output_spacing_is_no_divergence(pvtol, tictoc_chart, tictoc_gains):
    # dt only spaces the rows: the first step (about 6.7e-3) lies far below
    # dt/1000 at dt 10, and the run still converges.
    q0 = np.array([0.1, -0.5, 0.0])
    fine = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3), dt=0.01,
                              horizon=20.0)
    for dt in (10.0, 5.0):
        res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3), dt=dt,
                                 horizon=20.0)
        assert res.t[-1] == 20.0
        assert np.abs(res.q - fine.q[::int(round(dt / 0.01))]).max() < 1e-6
        assert np.linalg.norm(res.rho[-1]) < 1e-3


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


def _simulate_explicit_family_orbit(tmp_path, psi_s, k, rho0, *settings):
    """Exit code and --out of `simulate` on the explicit family orbit k = (k1, k2, k3)
    at psi_s and theta_max 0.2, for 10 periods from chart_invert(chart, 0.3, rho0)
    on the orbit the CLI plans."""
    model = vp.family_reduced(psi_s, *k, (-0.2, 0.2))
    sol = vp.solve_boundary(model, vp.check_theorem1(model), -0.8 * 0.2, 0.0, 0.8 * 0.2, 0.0)
    chart = vp.FamilyChart(vp.lift(model.vhc, vp.make_periodic(sol), vp.pvtol_model()))
    q0, qd0 = vp.chart_invert(chart, 0.3, rho0)
    out = tmp_path / "sim"
    assignments = [f"vhc.psi_s={psi_s!r}", "vhc.theta_max=0.2", "simulate.periods=10",
                   f"simulate.q0={json.dumps(q0.tolist())}",
                   f"simulate.qd0={json.dumps(qd0.tolist())}", *settings]
    assignments += [f"vhc.k{i}={v!r}" for i, v in enumerate(k, 1)]
    args = ["simulate", "--out", str(out), "--set", "vhc.kind=family"]
    return main(args + [arg for a in assignments for arg in ("--set", a)]), out


@pytest.mark.parametrize("psi_s", [0.5 * math.pi, 1.0])
def test_kappa_eight_family_orbit_closed_loop_converges(tmp_path, psi_s):
    # The kappa 8 orbit (0.25, 0.5, -0.1), whose Gramian minimum reads 5.7e-8 at
    # pi/2 and 8.0e-8 at 1.0, stabilizes in simulate, and its closed loop more than
    # halves a start 1e-3 off the orbit in 10 periods (3.2e-4 and 3.6e-4, about
    # 800 steps).
    code, out = _simulate_explicit_family_orbit(tmp_path, psi_s, (0.25, 0.5, -0.1),
                                                np.array([1e-3, 0.0, 0.0, 0.0, 0.0]))
    assert code == 0
    assert json.loads((out / "spectra.json").read_text())["closed_loop_max_abs"] < 0.85
    simulation = json.loads((out / "report.json").read_text())["simulation"]
    assert simulation["converged"] and simulation["final_orbit_error"] < 5e-4
    assert simulation["initial_orbit_error"] == pytest.approx(1e-3, rel=1e-9)


def test_a_start_the_closed_loop_does_not_halve_reads_not_converged(tmp_path):
    # 1e-3 off the kappa 8 orbit along (1, 1, 1, 1, 1)/sqrt 5, the closed loop
    # swells to 1.2e-3 and ends 10 periods later at 9.6e-4: under the absolute
    # bound 1e-3, but not half the start.
    code, out = _simulate_explicit_family_orbit(tmp_path, 0.5 * math.pi, (0.25, 0.5, -0.1),
                                                np.full(5, 1e-3 / math.sqrt(5.0)))
    assert code == 0
    simulation = json.loads((out / "report.json").read_text())["simulation"]
    assert simulation["initial_orbit_error"] == pytest.approx(1e-3, rel=1e-9)
    assert 0.5e-3 < simulation["final_orbit_error"] < 1e-3
    assert not simulation["converged"]


@pytest.mark.xfail(strict=True, raises=vp.ConvergenceError,
                   reason="u* has theta'' ~ |xi|^(1/3) at the crossing, and the short steps "
                          "there fall under SIM_MIN_STEP")
def test_kappa_four_thirds_family_orbit_closed_loop_passes_its_crossing(tmp_path):
    # The kappa 4/3 orbit (0.25, 1, -0.1) stabilizes (closed-loop radius 0.856),
    # but its closed loop stops at the first crossing even from the orbit itself:
    # "simulation diverged (a step of 9.53e-06 under 1e-05) at t = 0.166".
    code, out = _simulate_explicit_family_orbit(tmp_path, 0.5 * math.pi, (0.25, 1.0, -0.1),
                                                np.zeros(5), "simulate.dt=0.05")
    assert json.loads((out / "spectra.json").read_text())["closed_loop_max_abs"] < 0.86
    if code:    # the run's error, raised as its class
        error = json.loads((out / "error.json").read_text())
        raise getattr(vp, error["error"])(error["message"])
    assert json.loads((out / "report.json").read_text())["simulation"]["converged"]


def test_closed_form_dynamics_give_the_rows_of_the_mass_solve(pvtol, tictoc_chart,
                                                               tictoc_gains, family_pack,
                                                               family_gains):
    generic = dataclasses.replace(pvtol, accel=None)
    traj = family_pack["traj"]
    q0, qd0 = traj.state_at(0.1)
    starts = ((tictoc_chart, tictoc_gains, np.array([0.1, -0.5, 0.0]), np.zeros(3),
               2.0 * math.pi),
              (family_pack["chart"], family_gains, q0 + np.array([0.01, -0.01, 0.0]), qd0,
               traj.period))
    for chart, gains, q0, qd0, horizon in starts:
        a, b = (vp.run_closed_loop(sys_, chart, gains, q0, qd0, horizon=horizon)
                for sys_ in (pvtol, generic))
        for key in ("q", "qdot", "u", "rho"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), key
        assert a.metadata == b.metadata


class BatchOfOneChart:
    """A chart whose one-point `forward` and `reference_input` go through its
    batch path as a batch of one."""

    def __init__(self, chart):
        self.chart = chart

    def forward(self, q, qd):
        q, qd = np.asarray(q), np.asarray(qd)
        if q.ndim == 2:
            return self.chart.forward(q, qd)
        tau, rho = self.chart.forward(q[None], qd[None])
        return tau[0], rho[0]

    def reference_input(self, tau):
        if np.ndim(tau):
            return self.chart.reference_input(tau)
        return self.chart.reference_input(np.array([tau]))[0]


def _check_single_point_path(pvtol, chart, gains, q0, qd0, horizon):
    # The stage points of the chart, reference input and dynamics run on
    # Python floats; here each goes through the batch path as a batch of one.
    def accel(q, qd, u):
        return pvtol.accel(*(np.asarray(a)[None] for a in (q, qd, u)))[0]

    batch_of_one = dataclasses.replace(pvtol, accel=accel)
    a = vp.run_closed_loop(pvtol, chart, gains, q0, qd0, horizon=horizon)
    b = vp.run_closed_loop(batch_of_one, BatchOfOneChart(chart), gains, q0, qd0,
                           horizon=horizon)
    for key in ("q", "u", "rho"):
        assert np.abs(getattr(a, key) - getattr(b, key)).max() <= 1e-10, key


def test_single_point_path_follows_the_batch_path(pvtol, tictoc_chart, tictoc_gains):
    _check_single_point_path(pvtol, tictoc_chart, tictoc_gains, np.array([0.1, -0.5, 0.0]),
                             np.zeros(3), 2.0 * math.pi)


def test_family_single_point_path_follows_the_batch_path(pvtol, family_pack, family_gains):
    # A family point keeps numpy's atan2 and hypot on its stage floats.
    traj = family_pack["traj"]
    q0, qd0 = traj.state_at(0.1)
    _check_single_point_path(pvtol, family_pack["chart"], family_gains,
                             q0 + np.array([0.01, -0.01, 0.0]), qd0, traj.period)


def test_stage_input_is_the_scheduled_feedback(pvtol, tictoc_chart, tictoc_gains):
    # A stage forms u = u*(tau) + K(tau) rho on Python floats, from
    # `reference_input` and `k_rho`; each stage's u against the same law on arrays.
    stages = []

    def accel(q, qd, u):
        stages.append((q, qd, list(u)))
        return pvtol.accel(q, qd, u)

    recording = dataclasses.replace(pvtol, accel=accel)
    res = vp.run_closed_loop(recording, tictoc_chart, tictoc_gains, np.array([0.1, -0.5, 0.0]),
                             np.zeros(3), horizon=2.0 * math.pi)
    assert len(stages) == res.metadata["rhs_evals"] > 500
    for q, qd, u in stages:
        tau, rho = tictoc_chart.forward(q, qd)
        u_star = tictoc_chart.reference_input(tau)
        assert u == [a + b for a, b in zip(u_star, tictoc_gains.k_rho(tau, rho))]
        expected = np.array(u_star) + tictoc_gains.k_of(tau) @ np.array(rho)
        assert np.abs(np.array(u) - expected).max() <= 1e-14 * (1.0 + np.abs(u).max())


def test_k_rho_sums_each_row_of_k_of_left_to_right(tictoc_gains):
    # `k_rho` forms K(tau) rho in one pass; bit for bit the sum, left to right
    # from 0.0, of each row of `k_of(tau)` times rho. The phases hold the
    # knots (half of them a period on), +-pi, and phases up to two periods off
    # [-pi, pi), each followed by the phase 1e-3 later: neighbouring stages
    # mostly share a piece, which the spline keeps from one call to the next.
    rng = np.random.default_rng(32)
    knots = tictoc_gains.taus
    far = rng.uniform(-5.0 * math.pi, 5.0 * math.pi, (1000 - knots.size - 2) // 2)
    taus = np.concatenate([knots[::2], knots[1::2] + 2.0 * math.pi, [-math.pi, math.pi],
                           np.c_[far, far + 1e-3].ravel()])
    K = tictoc_gains.k_of(taus)
    assert taus.size == 1000 and K.shape == (1000, 2, 5)
    for tau, K_tau in zip(taus.tolist(), K):
        rho = rng.normal(size=5).tolist()
        entries = iter(K_tau.ravel().tolist())
        expected = []
        for _ in range(2):
            s = 0.0
            for rho_m in rho:
                s += next(entries) * rho_m
            expected.append(s)
        assert tictoc_gains.k_rho(tau, rho) == expected


def test_gains_with_a_plain_k_of_run_the_same_closed_loop(pvtol, tictoc_chart, tictoc_gains):
    # bench/tracing.py's count_gains swaps k_of for a plain function of one
    # argument on a copy of the gains. The stage reads `k_rho`, bound when
    # the gains were built, and the rows after the loop call the function.
    calls = []

    def k_of(tau):
        calls.append(tau)
        return tictoc_gains.k_of(tau)

    wrapped = copy.copy(tictoc_gains)
    wrapped.k_of = k_of
    q0 = np.array([0.1, -0.5, 0.0])
    a, b = (vp.run_closed_loop(pvtol, tictoc_chart, gains, q0, np.zeros(3),
                               horizon=2.0 * math.pi) for gains in (tictoc_gains, wrapped))
    for key in ("q", "qdot", "u", "tau", "rho"):
        assert np.array_equal(getattr(a, key), getattr(b, key)), key
    assert calls


def test_closed_loop_matches_solve_ivp_on_eval_accel(pvtol, tictoc_chart, tictoc_gains):
    # The loop checks once per run or stage and calls the solve alone; the
    # reference, scipy's DOP853 at rtol = atol = 1e-12, calls the checked
    # `eval_accel` at every stage.
    q0 = np.array([0.1, -0.5, 0.0])
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3),
                             horizon=2.0 * math.pi)

    def deriv(t, y):
        tau, rho = tictoc_chart.forward(y[:3], y[3:])
        u = tictoc_chart.reference_input(tau) + tictoc_gains.k_of(tau) @ rho
        return np.concatenate([y[3:], vp.eval_accel(pvtol, y[:3], y[3:], u)])

    ref = solve_ivp(deriv, (0.0, res.t[-1]), np.r_[q0, np.zeros(3)], method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=res.t)
    assert np.abs(res.q - ref.y[:3].T).max() <= 1e-7


def test_nan_t_bound_raises_before_the_first_step():
    # Every comparison with NaN is false, so a NaN t_bound would never end
    # the steps; +-inf stays valid, and the closed loop's steps run toward a
    # finite one.
    calls = []

    def decay(t, y):
        calls.append(t)
        return [-y_m for y_m in y]

    with pytest.raises(vp.DomainError, match="t_bound"):
        next(rk45_steps(decay, [1.0], math.nan, 1e-8))
    assert calls == []
    for t_bound, target in ((math.inf, 0.5), (-math.inf, 2.0)):
        for t_old, h, y_old, Q, t, y in rk45_steps(decay, [1.0], t_bound, 1e-8):
            if (y[0] - target) * (y_old[0] - target) <= 0.0:
                break
        at = math.copysign(math.log(2.0), t_bound)
        assert abs(rk45_dense(t_old, h, y_old, Q, at)[0] - target) < 1e-7


def test_a_nan_right_hand_side_ends_the_steps_short():
    # A NaN in one entry of y' fails every error test from its onset on, so
    # the step shrinks below its minimum and the steps end short of t_bound.
    # At the first call it makes the initial step NaN, and no step is taken.
    for onset in (0.5, 0.0):
        def fun(t, y):
            return [-y[0], math.nan if t >= onset else -y[1]]

        steps = list(rk45_steps(fun, [1.0, 1.0], 1.0, 1e-8))
        if onset:
            assert 0.4 < steps[-1][4] < onset
            assert all(math.isfinite(v) for step in steps for v in step[5])
        else:
            assert steps == []


def _recorded_steps(monkeypatch):
    """A list that collects (fun, t_bound, tol, steps) of each `rk45_steps` run in sim."""
    runs = []

    def recording(fun, y0, t_bound, tol):
        steps = []
        runs.append((fun, t_bound, tol, steps))
        for step in rk45_steps(fun, y0, t_bound, tol):
            steps.append(step)
            yield step

    monkeypatch.setattr(vhcplan.sim, "rk45_steps", recording)
    return runs


def test_last_row_is_read_inside_the_last_step(monkeypatch, pvtol, tictoc_chart, tictoc_gains):
    # 6 pi is not a multiple of dt: the rows end at 1885 dt, where the last step ends.
    runs = _recorded_steps(monkeypatch)
    dt = 0.01
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, np.array([0.1, -0.5, 0.0]),
                             np.zeros(3), dt=dt, horizon=6.0 * math.pi)
    assert res.t.size == 1886 and res.t[-1] == 1885 * dt
    (_, _, _, steps), = runs
    t_old, _, _, _, t_end, _ = steps[-1]
    assert t_old < res.t[-1] <= t_end == 1885 * dt
    assert res.metadata["integrator_steps"] == len(steps)
    # The rows, read in batches after the loop, against each step's own
    # quartic at the rows it covers.
    rows, start = [np.r_[res.q[0], res.qdot[0]]], 0.0
    for t_old, h, y_old, Q, t_end, _ in steps:
        times = res.t[(res.t > start) & (res.t <= t_end)]
        rows.extend(rk45_dense(t_old, h, y_old, Q, times))
        start = t_end
    rows = np.array(rows)
    assert np.array_equal(np.c_[res.q, res.qdot], rows)


def test_rk45_steps_match_solve_ivp_on_the_closed_loop(monkeypatch, pvtol, tictoc_chart,
                                                       tictoc_gains):
    # The 6-D closed loop over one period: every step's (t_old, h, y_old, Q)
    # equals scipy's RK45 dense output bit for bit. The run rejects a step
    # (two right-hand sides to start, six per try of a step), so a retry's
    # stages are compared too.
    runs = _recorded_steps(monkeypatch)
    q0 = np.array([0.1, -0.5, 0.0])
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3),
                             horizon=2.0 * math.pi)
    (rhs, t_bound, tol, steps), = runs
    assert res.metadata["rhs_evals"] > 6 * len(steps) + 2
    ref = solve_ivp(rhs, (0.0, t_bound), np.r_[q0, np.zeros(3)], method="RK45", rtol=tol,
                    atol=tol, dense_output=True)
    dense = ref.sol.interpolants
    assert len(steps) == len(dense) > 100
    for k, name in enumerate(("t_old", "h", "y_old", "Q")):
        assert np.array_equal([step[k] for step in steps], [getattr(d, name) for d in dense])


def test_zero_horizon_gives_the_initial_row(pvtol, tictoc_chart, tictoc_gains):
    q0 = np.array([0.1, -0.5, 0.0])
    res = vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, np.zeros(3), horizon=0.0)
    assert res.t.tolist() == [0.0]
    assert np.array_equal(res.q, [q0]) and np.array_equal(res.qdot, [np.zeros(3)])
    assert res.u.shape == (1, 2) and res.rho.shape == (1, 5)
    assert res.metadata["rhs_evals"] == res.metadata["integrator_steps"] == 0


def test_spent_budget_and_short_run_raise(monkeypatch, tmp_path, pvtol, tictoc_chart,
                                          tictoc_gains):
    q0, qd0 = np.array([0.1, -0.5, 0.0]), np.zeros(3)
    keys = {"time", "final_state", "rhs_evals"}
    monkeypatch.setattr(vhcplan.sim, "SIM_RHS_PER_SECOND", 0)
    monkeypatch.setattr(vhcplan.sim, "SIM_RHS_PER_RUN", 100)
    with pytest.raises(vp.ConvergenceError, match="budget of 100 ") as info:
        vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, qd0)
    assert set(info.value.diagnostics) == keys
    assert info.value.diagnostics["rhs_evals"] == 101
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--set", "stabilize.n_grid=64"]) == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ConvergenceError" and set(error["diagnostics"]) == keys
    # 5 per run and 10 per simulated second: 5 + ceil(10 * 1885 dt).
    monkeypatch.setattr(vhcplan.sim, "SIM_RHS_PER_SECOND", 10)
    monkeypatch.setattr(vhcplan.sim, "SIM_RHS_PER_RUN", 5)
    with pytest.raises(vp.ConvergenceError, match=r"budget of 194 "):
        vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, qd0, dt=0.01,
                           horizon=6.0 * math.pi)
    # Steps that end short of the last row, as where the step size collapses.
    monkeypatch.undo()
    monkeypatch.setattr(vhcplan.sim, "rk45_steps",
                        lambda *args: itertools.islice(rk45_steps(*args), 3))
    with pytest.raises(vp.ConvergenceError, match="step size collapsed") as info:
        vp.run_closed_loop(pvtol, tictoc_chart, tictoc_gains, q0, qd0, dt=1.0)
    assert set(info.value.diagnostics) == keys


def test_closed_loop_keeps_the_model_checks(monkeypatch, pvtol, tictoc_chart):
    q0, qd0 = np.array([0.1, -0.5, 0.0]), np.zeros(3)
    # Infinite or NaN gravity: the first stage is finite, its acceleration is
    # not, so the second stage state is not finite.
    for g in (np.inf, np.nan):
        unbounded = MechanicalSystem(n=3, mass_matrix=pvtol.mass_matrix,
                                     coriolis=pvtol.coriolis,
                                     gravity=lambda q, g=g: np.array([0.0, g, 0.0]),
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

    # The shape of u is checked once, at the initial state, before any step.
    started = []
    monkeypatch.setattr(vhcplan.sim, "rk45_steps",
                        lambda *args: started.append(True) or rk45_steps(*args))
    with pytest.raises(ValueError, match="u must have shape"):
        vp.run_closed_loop(pvtol, WideInputChart(), None, q0, qd0)
    assert not started
