"""Closed-loop simulation of the full nonlinear plant under the orbital feedback.

Fixed-step RK4 on the second-order dynamics; the control u = u*(tau) + K(tau) rho
is recomputed at every integrator stage by default (a zero-order hold variant
keeps it frozen across the step). The transverse coordinates the control uses at
each step are logged, so convergence into the orbit can be read off directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ModelInvariantError
from .mech import MechanicalSystem, solve_accel
from .transverse import GainSchedule

Array = np.ndarray


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


def run_closed_loop(sys: MechanicalSystem, chart, gains: GainSchedule | None,
                    q0: Array, qd0: Array, dt: float = 0.01,
                    horizon: float = 6.0 * math.pi,
                    stage_feedback: bool = True) -> SimulationResult:
    """Simulate from (q0, qd0) for `horizon` seconds under the scheduled feedback.

    gains=None applies the reference input u*(tau) alone (open loop).
    Raises ConvergenceError when an entry of the state at a step is not finite
    or its magnitude exceeds 1e6 (divergence guard). The checks of
    `eval_accel` run before its solve, once per run for the shapes of q0 and
    qd0, once per RK4 stage for a finite stage state, and on every feedback
    input for the shape of u.
    """
    q0 = np.asarray(q0, dtype=float)
    qd0 = np.asarray(qd0, dtype=float)
    n = sys.n
    if q0.shape != (n,) or qd0.shape != (n,):
        raise ModelInvariantError(f"q0 and qd0 must both have shape ({n},)")
    n_steps = int(round(horizon / dt))

    def feedback(tau: float, rho: Array) -> Array:
        u = chart.reference_input(tau)
        if gains is not None:
            u = u + gains.k_of(tau) @ rho
        if u.shape != (n - 1,):
            raise ValueError(f"u must have shape {(n - 1,)}")
        return u

    def deriv(y: Array, u: Array | None = None) -> Array:
        if not np.isfinite(y).all():
            raise ModelInvariantError("phase state must be finite")
        q, qd = y[:n], y[n:]
        if u is None:
            u = feedback(*chart.forward(q, qd))
        dy = np.empty(2 * n)
        dy[:n] = qd
        dy[n:] = solve_accel(sys, q, qd, u)
        return dy

    ts = dt * np.arange(n_steps + 1)
    qs = np.empty((n_steps + 1, n))
    qds = np.empty((n_steps + 1, n))
    us = np.empty((n_steps + 1, n - 1))
    taus = np.empty(n_steps + 1)
    rhos = np.empty((n_steps + 1, 5))

    y = np.concatenate([q0, qd0])
    for k in range(n_steps + 1):
        if not np.abs(y).max() <= 1e6:
            raise ConvergenceError(f"simulation diverged at t = {ts[k]:.3f}")
        tau_k, rho_k = chart.forward(y[:n], y[n:])
        u_hold = feedback(tau_k, rho_k)
        qs[k] = y[:n]
        qds[k] = y[n:]
        us[k] = u_hold
        taus[k] = tau_k
        rhos[k] = rho_k
        if k == n_steps:
            break
        u_stage = None if stage_feedback else u_hold
        k1 = deriv(y, u_hold)
        k2 = deriv(y + 0.5 * dt * k1, u_stage)
        k3 = deriv(y + 0.5 * dt * k2, u_stage)
        k4 = deriv(y + dt * k3, u_stage)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return SimulationResult(t=ts, q=qs, qdot=qds, u=us, tau=taus, rho=rhos, dt=dt,
                            metadata={"stage_feedback": stage_feedback,
                                      "open_loop": gains is None,
                                      "horizon": float(horizon)})
