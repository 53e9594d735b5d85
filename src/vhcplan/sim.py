"""Closed-loop simulation of the full nonlinear plant under the orbital feedback.

Dormand-Prince steps (`singular_solver.rk45_steps`) at rtol = atol = SIM_TOL;
the control u = u*(tau) + K(tau) rho is recomputed at every stage, on Python
floats: the chart's `reference_input` gives u*(tau) as a list (about 0.5 us)
and `GainSchedule.k_rho` gives K(tau) rho in one pass over the spline's piece
(3.1-4.0 us, against 4.6-4.7 us for K as a list and a loop over its rows).
The loop keeps each accepted step's quartic, and the output rows at the
times k dt are read off them after the loop. The transverse coordinates of each
output row are logged, so convergence into the orbit can be read off directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ModelInvariantError
from .mech import MechanicalSystem, solve_accel
from .numdiff import matvec
from .singular_solver import rk45_steps
from .transverse import GainSchedule

Array = np.ndarray

# The loosest rtol = atol at which 3-period tic-toc runs (17 starts) stay within
# 2.2e-8 of a run at 1e-12 and nearer than RK4 at dt = 0.01 came.
SIM_TOL = 5e-9
# A run may spend SIM_RHS_PER_SECOND right-hand sides per simulated second plus
# SIM_RHS_PER_RUN once. It spends about 130 per second on tic-toc and 1,180 on
# the README's family run.
SIM_RHS_PER_SECOND = 10_000
SIM_RHS_PER_RUN = 100
# An accepted step shorter than SIM_MIN_STEP (in time units), other than one
# cut at the end of the run, counts as divergence, as in a spin-up. The README
# runs never step below 4.4e-3, and the output spacing dt plays no part.
SIM_MIN_STEP = 1e-5
# horizon/dt must stay below SIM_MAX_ROWS, which caps the rows at about 120 MB.
# The largest documented run, the README's 20-period family run, logs 4,242.
SIM_MAX_ROWS = 1_000_000
# A state with an entry beyond SIM_MAX_STATE counts as divergence.
SIM_MAX_STATE = 1e6


@dataclass(frozen=True)
class SimulationResult:
    t: Array
    q: Array
    qdot: Array
    u: Array
    tau: Array
    rho: Array
    dt: float
    metadata: dict


def output_steps(dt: float, horizon: float) -> int:
    """round(horizon/dt), the last output row of a run; checks dt and the row cap.

    Raises DomainError for a dt that is not finite and positive, or horizon/dt
    outside [0, SIM_MAX_ROWS) (a horizon that is negative or not finite too).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    if not 0 <= horizon / dt < SIM_MAX_ROWS:
        raise DomainError(f"horizon/dt = {horizon / dt:.3g} rows, not in [0, SIM_MAX_ROWS = "
                          f"{SIM_MAX_ROWS})")
    return int(round(horizon / dt))


def run_closed_loop(sys: MechanicalSystem, chart, gains: GainSchedule | None,
                    q0: Array, qd0: Array, dt: float = 0.01,
                    horizon: float = 6.0 * math.pi,
                    stage_feedback: bool = True) -> SimulationResult:
    """Simulate from (q0, qd0) under the scheduled feedback, rows k dt up to round(horizon/dt).

    gains=None applies the reference input u*(tau) alone (open loop).
    stage_feedback accepts only True (the zero-order hold was removed).
    Raises DomainError for a bad output grid (`output_steps`), and ValueError,
    before the first step, when u at the initial state does not have shape (n-1,).
    Raises ConvergenceError with diagnostics (time, final_state, rhs_evals) on
    divergence, when an initial or stage state has an entry beyond SIM_MAX_STATE
    (also a non-finite initial state) or a step falls below SIM_MIN_STEP; when the run
    spends its budget of right-hand sides (SIM_RHS_PER_SECOND, SIM_RHS_PER_RUN);
    or when the step size collapses. A non-finite stage state raises
    ModelInvariantError.
    """
    if stage_feedback is not True:
        raise DomainError("the zero-order hold was removed: stage_feedback must be True")
    q0 = np.asarray(q0, dtype=float)
    qd0 = np.asarray(qd0, dtype=float)
    n = sys.n
    if q0.shape != (n,) or qd0.shape != (n,):
        raise ModelInvariantError(f"q0 and qd0 must both have shape ({n},)")
    n_steps = output_steps(dt, horizon)
    ts = dt * np.arange(n_steps + 1)
    y0 = np.concatenate([q0, qd0])
    evals = 0

    def stop(message: str, t: float, y: Array):
        raise ConvergenceError(f"simulation {message} at t = {t:.3f}", {
            "time": float(t), "final_state": y.tolist(), "rhs_evals": evals})

    def feedback(tau, rho: Array) -> Array:
        u = np.asarray(chart.reference_input(tau))
        if gains is not None:
            u = u + matvec(gains.k_of(tau), rho)
        return u

    # A stage runs on Python floats: the chart and the dynamics take the point
    # as lists and return rho and q'' as lists, and y' goes back as a list.
    def rhs(t: float, y: Array) -> list[float]:
        nonlocal evals
        evals += 1
        if evals > budget:
            stop(f"spent its budget of {budget} right-hand sides", t, y)
        x = y.tolist()
        if not all(map(SIM_MAX_STATE.__ge__, map(abs, x))):
            if not all(map(math.isfinite, x)):
                raise ModelInvariantError("phase state must be finite")
            stop("diverged", t, y)
        q, qd = x[:n], x[n:]
        tau, rho = chart.forward(q, qd)
        u = chart.reference_input(tau)
        if gains is not None:
            u = [u_j + k_rho_j for u_j, k_rho_j in zip(u, gains.k_rho(tau, rho))]
        return [*qd, *solve_accel(sys, q, qd, u)]

    if not np.abs(y0).max() <= SIM_MAX_STATE:
        stop("diverged", 0.0, y0)
    if feedback(*chart.forward(q0, qd0)).shape != (n - 1,):
        raise ValueError(f"u must have shape {(n - 1,)}")
    budget = SIM_RHS_PER_RUN + math.ceil(SIM_RHS_PER_SECOND * ts[-1])
    steps = ([], [], [], [])   # t_old, h, y_old and Q of each accepted step
    t, y = 0.0, y0
    for t_old, h, y_old, Q, t, y in rk45_steps(rhs, y0, ts[-1], SIM_TOL):
        if h < SIM_MIN_STEP and t < ts[-1]:
            stop(f"diverged (a step of {h:.2e} under {SIM_MIN_STEP:g})", t, y)
        for column, value in zip(steps, (t_old, h, y_old, Q)):
            column.append(value)
    if t < ts[-1]:
        stop("step size collapsed", t, y)
    t_old, h, y_old, Q = map(np.array, steps)
    ends = np.append(t_old[1:], t)

    # The rows, and their tau, rho and u, 256 at a time: one batch of all rows
    # left temporaries of about 0.6 MiB and raised the peak resident memory.
    # Row k > 0 lies on the first step that ends at or after k dt and is read
    # off that step's quartic, as `rk45_dense` reads it.
    ys = np.empty((len(ts), 2 * n))
    ys[0] = y0
    taus, rhos, us = np.empty(len(ts)), np.empty((len(ts), 2 * n - 1)), np.empty((len(ts), n - 1))
    for i in range(0, len(ts), 256):
        b, r = slice(i, i + 256), slice(max(i, 1), i + 256)
        if n_steps:
            j = np.searchsorted(ends, ts[r])
            p = np.cumprod(np.multiply.outer((ts[r] - t_old[j]) / h[j], np.ones(4)), axis=1)
            ys[r] = h[j, None] * matvec(Q[j], p) + y_old[j]
        taus[b], rhos[b] = chart.forward(ys[b, :n], ys[b, n:])
        us[b] = feedback(taus[b], rhos[b])
    return SimulationResult(t=ts, q=ys[:, :n], qdot=ys[:, n:], u=us, tau=taus, rho=rhos,
                            dt=dt, metadata={"open_loop": gains is None, "horizon": float(horizon),
                                             "rhs_evals": evals, "integrator_steps": len(h),
                                             "tol": SIM_TOL})
