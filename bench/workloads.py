"""The three benchmark workloads and their per-op correctness checks.

Each workload has `setup()` (one-time work before the first timed op),
`make_input(rng)` (the op's seeded input, made outside the timed region),
`run(inp, workdir, tracer)` (the timed op) and `check(result, workdir)`, which
returns the list of failed checks and the closed-loop Floquet radius.
Thresholds are those of tests/test_acceptance.py, never looser.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math

import numpy as np

import vhcplan.cli
import vhcplan.mech
import vhcplan.sim
import vhcplan.singular_solver
import vhcplan.transverse
import vhcplan.vhc

TICTOC_Q0 = np.array([0.1, -0.5, 0.0])
TICTOC_Q0_SPREAD = 0.05
GRAMIAN_TARGET = np.array([744.0, 70.7, 15.3, 5.16, 0.0537])
ROLLOUT_RADIUS = 0.2
ROLLOUT_PERIODS = 3.0
ROLLOUT_DT = 0.01


def _read(path):
    return json.loads(path.read_text())


class TicToc:
    """`vhcplan certify` then `vhcplan simulate` at the default config."""

    name = "tictoc"

    def setup(self):
        pass

    def make_input(self, rng):
        return [float(v) for v in TICTOC_Q0 + rng.uniform(-TICTOC_Q0_SPREAD,
                                                            TICTOC_Q0_SPREAD, 3)]

    def run(self, q0, workdir, tracer=None):
        return [vhcplan.cli.main(["certify", "--out", str(workdir / "certify")]),
                vhcplan.cli.main(["simulate", "--out", str(workdir / "simulate"),
                                  "--set", f"simulate.q0={json.dumps(q0)}"])]

    def check(self, codes, workdir):
        problems = [f"exit code {c}" for c in codes if c != 0]
        if problems:
            return problems, math.nan
        cert = _read(workdir / "certify" / "certificate.json")
        passes = cert["singular_passes"]
        times = sorted(p["time"] for p in passes)
        if cert["verdict"] != "no_regular_vhc":
            problems.append(f"certificate verdict {cert['verdict']}")
        if len(times) != 2 or abs(times[0]) >= 1e-8 or abs(times[1] - math.pi) >= 1e-8:
            problems.append(f"singular passes at {times}, expected t = 0 and pi")
        if not all(abs(p["gravity_distance"] - 1.0) < 1e-12
                   and abs(p["speed"] - math.sqrt(5.0)) < 1e-12 for p in passes):
            problems.append("singular pass speed or gravity distance off")
        report = _read(workdir / "simulate" / "report.json")
        spectra = _read(workdir / "simulate" / "spectra.json")
        if not report["max_input_residual"] < 1e-8:
            problems.append(f"max_input_residual {report['max_input_residual']}")
        eigs = np.array(spectra["gramian_eigenvalues"])
        if eigs.shape != GRAMIAN_TARGET.shape or not np.all(
                np.abs(eigs - GRAMIAN_TARGET) / GRAMIAN_TARGET < 0.05):
            problems.append(f"Gramian eigenvalues {eigs}")
        if not spectra["closed_loop_max_abs"] < 0.05:
            problems.append(f"closed_loop_max_abs {spectra['closed_loop_max_abs']}")
        if report["simulation"]["converged"] is not True:
            problems.append("simulation did not converge")
        return problems, spectra["closed_loop_max_abs"]


class Family:
    """`vhcplan stabilize` on the constraint family at psi_s = pi/2.

    The op has no seeded input: the config below is the workload.
    """

    name = "family"
    argv = ["stabilize", "--set", "vhc.kind=family", "--set", "stabilize.max_sweeps=300"]

    def setup(self):
        pass

    def make_input(self, rng):
        return None

    def run(self, _, workdir, tracer=None):
        return [vhcplan.cli.main(self.argv + ["--out", str(workdir)])]

    def check(self, codes, workdir):
        if codes != [0]:
            return [f"exit code {codes[0]}"], math.nan
        spectra = _read(workdir / "spectra.json")
        problems = []
        if not spectra["gramian_min_eigenvalue"] > 1e-6:
            problems.append(f"Gramian min eigenvalue {spectra['gramian_min_eigenvalue']}")
        if not spectra["closed_loop_max_abs"] < 1.0:
            problems.append(f"closed_loop_max_abs {spectra['closed_loop_max_abs']}")
        return problems, spectra["closed_loop_max_abs"]


class Rollout:
    """One closed-loop run of the stabilized tic-toc orbit from a seeded state.

    Set-up plans and stabilizes the orbit through the library; each op starts
    at `chart_invert(tau, rho)` with tau uniform on [-pi, pi) and rho of norm
    ROLLOUT_RADIUS in a uniform direction.
    """

    name = "rollout"

    def setup(self):
        sys_ = vhcplan.mech.pvtol_model()
        vhc = vhcplan.vhc.tic_toc_vhc()
        model = vhcplan.vhc.reduce(sys_, vhc, (-2.0, 2.0))
        report = vhcplan.vhc.check_theorem1(model)
        sol = vhcplan.singular_solver.solve_boundary(model, report, -1.0, 0.0, 1.0, 0.0)
        traj = vhcplan.singular_solver.lift(vhc, vhcplan.singular_solver.make_periodic(sol),
                                            sys_)
        chart = vhcplan.transverse.TicTocChart()
        ltv = vhcplan.transverse.linearize(chart, sys_, traj)
        gains = vhcplan.transverse.periodic_lqr(ltv)
        _, eig = vhcplan.transverse.monodromy(ltv, gains)
        self.sys, self.chart, self.gains = sys_, chart, gains
        self.horizon = ROLLOUT_PERIODS * traj.period
        self.floquet = float(np.max(np.abs(eig)))

    def make_input(self, rng):
        tau = rng.uniform(-math.pi, math.pi)
        direction = rng.normal(size=5)
        rho = ROLLOUT_RADIUS * direction / np.linalg.norm(direction)
        return vhcplan.transverse.chart_invert(self.chart, tau, rho)

    def run(self, state, workdir, tracer=None):
        sys_, chart, gains = self.sys, self.chart, self.gains
        if tracer is not None:
            sys_ = tracer.count_system(sys_)
            chart = tracer.count_chart(chart)
            gains = tracer.count_gains(gains)
        q0, qd0 = state
        return vhcplan.sim.run_closed_loop(sys_, chart, gains, q0, qd0, dt=ROLLOUT_DT,
                                           horizon=self.horizon, stage_feedback=True)

    def check(self, res, workdir):
        problems = []
        final = float(np.linalg.norm(res.rho[-1]))
        if not final < 1e-3:
            problems.append(f"|rho(T)| = {final:.3e}")
        if not (np.all(np.isfinite(res.q)) and np.all(np.isfinite(res.u))
                and float(np.abs(res.q).max()) < 10.0):
            problems.append("state or input unbounded")
        return problems, self.floquet


WORKLOADS = {w.name: w for w in (TicToc, Family, Rollout)}
