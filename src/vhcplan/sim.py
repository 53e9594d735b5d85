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

from .errors import ConvergenceError
from .mech import MechanicalSystem, eval_accel
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
    Raises ConvergenceError if the state norm exceeds 1e6 (divergence guard).
    """
    q0 = np.asarray(q0, dtype=float)
    qd0 = np.asarray(qd0, dtype=float)
    n = sys.n
    n_steps = int(round(horizon / dt))

    def feedback(tau: float, rho: Array) -> Array:
        u = chart.reference_input(tau)
        if gains is not None:
            u = u + gains.k_of(tau) @ rho
        return u

    def control(y: Array) -> Array:
        return feedback(*chart.forward(y[:n], y[n:]))

    def deriv(y: Array, u: Array) -> Array:
        q, qd = y[:n], y[n:]
        return np.concatenate([qd, eval_accel(sys, q, qd, u)])

    ts = np.empty(n_steps + 1)
    qs = np.empty((n_steps + 1, n))
    qds = np.empty((n_steps + 1, n))
    us = np.empty((n_steps + 1, n - 1))
    taus = np.empty(n_steps + 1)
    rhos = np.empty((n_steps + 1, 5))

    y = np.concatenate([q0, qd0])
    for k in range(n_steps + 1):
        t = k * dt
        if not np.all(np.isfinite(y)) or float(np.max(np.abs(y))) > 1e6:
            raise ConvergenceError(f"simulation diverged at t = {t:.3f}")
        tau_k, rho_k = chart.forward(y[:n], y[n:])
        u_hold = feedback(tau_k, rho_k)
        ts[k] = t
        qs[k] = y[:n]
        qds[k] = y[n:]
        us[k] = u_hold
        taus[k] = tau_k
        rhos[k] = rho_k
        if k == n_steps:
            break

        def stage_u(y_stage: Array) -> Array:
            return control(y_stage) if stage_feedback else u_hold

        k1 = deriv(y, u_hold)
        y2 = y + 0.5 * dt * k1
        k2 = deriv(y2, stage_u(y2))
        y3 = y + 0.5 * dt * k2
        k3 = deriv(y3, stage_u(y3))
        y4 = y + dt * k3
        k4 = deriv(y4, stage_u(y4))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return SimulationResult(t=ts, q=qs, qdot=qds, u=us, tau=taus, rho=rhos, dt=dt,
                            metadata={"stage_feedback": stage_feedback,
                                      "open_loop": gains is None,
                                      "horizon": float(horizon)})
