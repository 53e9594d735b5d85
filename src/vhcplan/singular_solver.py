"""Boundary solutions of the singular reduced dynamics and their lift.

The reduced equation alpha(theta) theta'' + beta(theta) theta'^2 + gamma = 0
loses Lipschitz uniqueness where alpha vanishes: a one-parameter family of
solutions passes through (theta_s, v_s) with the forced crossing velocity
v_s = sqrt(-gamma/beta) and the forced crossing acceleration

    a_s = -(beta' v_s^2 + gamma') / (alpha' + 2 beta)   at theta_s.

Because the family's branches separate like |theta - theta_s|^kappa with
kappa = -2 beta/alpha' > 1, integrating away from the crossing amplifies any
seed error by 1/xi^kappa, while integrating from a boundary state toward the
crossing contracts onto the branch the boundary data selects. The solver
therefore integrates each side inward from its endpoint, stops a small
distance xi_cut before theta_s, and bridges the crossing with the series
above; endpoint conditions hold by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (BoundaryUnreachableError, ConditionCheckError,
                     ConvergenceError, DomainError)
from .mech import MechanicalSystem, inverse_input
from .numdiff import central_derivative
from .vhc import ParametricVhc, ReducedModel, SingularityReport

Array = np.ndarray


def singular_acceleration(model: ReducedModel, report: SingularityReport) -> float:
    """Forced acceleration at the singular crossing (global-sign invariant)."""
    if not report.overall:
        raise ConditionCheckError("singular acceleration requires a passing existence report")
    th = report.theta_s
    h = 1e-6 * (1.0 + abs(th))
    dalpha, dbeta, dgamma = central_derivative(model.coefficients, th, h)
    _, beta_s, gamma_s = model.coefficients(th)
    v2 = -gamma_s / beta_s
    denom = dalpha + 2.0 * beta_s
    if denom == 0.0:
        raise ConditionCheckError("degenerate crossing: alpha' + 2 beta vanishes")
    return float(-(dbeta * v2 + dgamma) / denom)


@dataclass
class ScalarSolution:
    """One boundary-to-boundary solution through the singular crossing (t_s = 0)."""

    t1: float
    t2: float
    dtheta1: float
    dtheta2: float
    v_s: float
    a_s: float
    _eval: Callable[[float], tuple[float, float, float]] = field(repr=False)

    def eval(self, t):
        """(theta, theta', theta'') at time t in [t1, t2]; arrays for an array of t."""
        return self._eval(t)


@dataclass
class PeriodicScalarSolution:
    """Mirror-concatenated periodic solution; crossings carry series data."""

    base: ScalarSolution
    t0: float
    period: float
    # (time, crossing velocity, crossing acceleration) per crossing in one period
    crossings: tuple

    def eval(self, t):
        """(theta, theta', theta'') at any time t; arrays for an array of t."""
        base = self.base
        tau = self.t0 + np.fmod(np.asarray(t, dtype=float) - self.t0, self.period)
        tau = tau + self.period * (tau < self.t0)
        mirrored = tau > base.t2
        th, dth, ddth = base.eval(np.where(mirrored, 2.0 * base.t2 - tau, tau))
        return th, dth * (1.0 - 2.0 * mirrored), ddth   # theta' flips on the mirrored half


def _series_offset(xi: float, v_s: float, a_s: float, inward: int) -> float:
    """Time to cover distance xi from the crossing along the series (inward=-1 left)."""
    # Root d > 0 of v_s d + inward * a_s d^2 / 2 = xi, in the cancellation-free form.
    return 2.0 * xi / (v_s + math.sqrt(v_s * v_s + 2.0 * inward * a_s * xi))


def solve_boundary(model: ReducedModel, report: SingularityReport,
                   theta1: float, dtheta1: float, theta2: float, dtheta2: float,
                   xi_cut: float = 1e-6, tol: float = 1e-10,
                   t_max: float = 1e3) -> ScalarSolution:
    """Solution with theta(t1) = theta1, theta(t2) = theta2 crossing the singularity.

    Endpoint velocities dtheta1, dtheta2 >= 0 select the branch on each side;
    each side is integrated from its endpoint toward the crossing (RK45,
    rtol = atol = tol), stopped at |theta - theta_s| = xi_cut, and joined by
    the forced-velocity series. Time origin: the crossing happens at t = 0.
    """
    if not report.overall:
        raise ConditionCheckError("solve_boundary requires a passing existence report")
    if dtheta1 < 0.0 or dtheta2 < 0.0:
        raise DomainError("boundary velocities must be nonnegative")
    th_s = report.theta_s
    if not theta1 < th_s < theta2:
        raise DomainError("boundary positions must bracket the singular point")
    lo, hi = model.interval
    if theta1 < lo or theta2 > hi:
        raise DomainError("boundary positions must lie inside the model interval")
    if min(th_s - theta1, theta2 - th_s) < 10.0 * xi_cut:
        raise DomainError("boundary positions too close to the singular point")

    v_s = report.v_s
    a_s = singular_acceleration(model, report)

    def accel(th, dth):
        alpha, beta, gamma = model.coefficients(th)
        return -(beta * dth * dth + gamma) / alpha

    def rhs(t, y):
        return [y[1], accel(*y)]

    def cut_event(target):
        def event(t, y):
            return y[0] - target
        event.terminal = True
        event.direction = 0
        return event

    # Left side: forward in time from (theta1, dtheta1) up to theta_s - xi_cut.
    left = solve_ivp(rhs, (0.0, t_max), [theta1, dtheta1], method="RK45",
                     rtol=tol, atol=tol, dense_output=True,
                     events=[cut_event(th_s - xi_cut)])
    if not left.t_events[0].size:
        raise BoundaryUnreachableError(
            "left boundary state cannot reach the singular crossing",
            {"side": "left", "final_state": list(left.y[:, -1]), "time": float(left.t[-1])})
    T_left = float(left.t_events[0][0])
    dth_cut_left = float(left.y_events[0][0][1])

    # Right side: backward in time from (theta2, dtheta2) down to theta_s + xi_cut.
    right = solve_ivp(rhs, (0.0, -t_max), [theta2, dtheta2], method="RK45",
                      rtol=tol, atol=tol, dense_output=True,
                      events=[cut_event(th_s + xi_cut)])
    if not right.t_events[0].size:
        raise BoundaryUnreachableError(
            "right boundary state cannot reach the singular crossing",
            {"side": "right", "final_state": list(right.y[:, -1]), "time": float(right.t[-1])})
    T_right = -float(right.t_events[0][0])
    dth_cut_right = float(right.y_events[0][0][1])

    for side, dth_cut in (("left", dth_cut_left), ("right", dth_cut_right)):
        if abs(dth_cut - v_s) > 0.2 * v_s + 0.2:
            raise ConvergenceError(
                f"{side} sweep reached the cut with velocity {dth_cut:.6g}, "
                f"far from the forced crossing velocity {v_s:.6g}")

    dt_left = _series_offset(xi_cut, v_s, a_s, inward=-1)
    dt_right = _series_offset(xi_cut, v_s, a_s, inward=+1)
    t1 = -(T_left + dt_left)
    t2 = dt_right + T_right

    # Quadratic through the crossing acceleration and the two safe edge values
    # avoids the 0/0 quotient inside the bridge window.
    edge_l = left.sol(T_left)
    edge_r = right.sol(-T_right)
    bridge_t = np.array([-dt_left, 0.0, dt_right])
    bridge_a = np.array([accel(*edge_l), a_s, accel(*edge_r)])
    bridge_poly = np.polyfit(bridge_t, bridge_a, 2)

    def bridge(t):
        return th_s + v_s * t + 0.5 * a_s * t * t, v_s + a_s * t, np.polyval(bridge_poly, t)

    def evaluate(t_in):
        t = np.asarray(t_in, dtype=float)
        outside = (t < t1 - 1e-9) | (t > t2 + 1e-9)
        if outside.any():
            raise DomainError(f"t={t[outside][0]} outside solution window [{t1}, {t2}]")
        if t.ndim == 0:
            # A single time takes only its own branch: the masked path below
            # costs one point several times more, and a closed loop on the
            # family chart evaluates single times at every stage.
            t = float(t)
            if t < -dt_left:
                th, dth = left.sol(min(t - t1, T_left))
            elif t > dt_right:
                th, dth = right.sol(max(t - t2, -T_right))
            else:
                return bridge(t)
            return th, dth, accel(th, dth)
        th, dth, ddth = bridge(t)
        on_left = t < -dt_left
        on_right = t > dt_right
        if on_left.any():
            th[on_left], dth[on_left] = left.sol(np.minimum(t[on_left] - t1, T_left))
        if on_right.any():
            th[on_right], dth[on_right] = right.sol(np.maximum(t[on_right] - t2, -T_right))
        on_ode = on_left | on_right
        ddth[on_ode] = accel(th[on_ode], dth[on_ode])
        return th, dth, ddth

    return ScalarSolution(t1=t1, t2=t2, dtheta1=dtheta1, dtheta2=dtheta2,
                          v_s=v_s, a_s=a_s, _eval=evaluate)


def make_periodic(sol: ScalarSolution) -> PeriodicScalarSolution:
    """Close the orbit by time reflection about t2: period 2 (t2 - t1).

    The reduced dynamics is reversible (even in theta'), so the mirrored half
    solves the same equation; rest endpoints make the junctions C^2.
    """
    if abs(sol.dtheta1) > 1e-8 or abs(sol.dtheta2) > 1e-8:
        raise ConditionCheckError("mirror concatenation requires rest endpoints (dtheta = 0)")
    crossings = ((0.0, sol.v_s, sol.a_s), (2.0 * sol.t2, -sol.v_s, sol.a_s))
    return PeriodicScalarSolution(base=sol, t0=sol.t1, period=2.0 * (sol.t2 - sol.t1),
                                  crossings=crossings)


@dataclass
class PeriodicTrajectory:
    """Periodic motion of the full model riding a constraint curve."""

    t: Array
    q: Array
    qdot: Array
    u: Array
    residuals: Array
    t0: float
    period: float
    vhc: ParametricVhc
    scalar: PeriodicScalarSolution
    system: MechanicalSystem

    def state_at(self, t):
        """(q, qdot) at time t, exact to the scalar solution's accuracy."""
        q, qd, _ = _constrained_motion(self.vhc, *self.scalar.eval(t))
        return q, qd

    def full_state_at(self, t):
        """(q, qdot, qddot, u) at time t."""
        q, qd, qdd = _constrained_motion(self.vhc, *self.scalar.eval(t))
        u, _ = inverse_input(self.system, q, qd, qdd)
        return q, qd, qdd, u


def _constrained_motion(vhc: ParametricVhc, th, dth, ddth):
    """(q, q', q'') on the constraint curve for scalars or 1-D arrays of (theta, theta', theta'')."""
    dth = np.asarray(dth)[..., None]
    ddth = np.asarray(ddth)[..., None]
    dphi = vhc.dphi(th)
    return vhc.phi(th), dphi * dth, vhc.ddphi(th) * dth * dth + dphi * ddth


def lift(vhc: ParametricVhc, sol: PeriodicScalarSolution, sys: MechanicalSystem,
         n_samples: int = 4096) -> PeriodicTrajectory:
    """Map a periodic scalar solution through the constraint to a full trajectory.

    Inputs come from the actuated least-squares inverse; the unactuated force
    residual B_perp (M q'' + C q' + G) is recorded per sample and must stay
    below 1e-8 (it equals the reduced-equation residual).
    """
    times = sol.t0 + sol.period * np.arange(int(n_samples)) / int(n_samples)
    q, qd, qdd = _constrained_motion(vhc, *sol.eval(times))
    u, res = inverse_input(sys, q, qd, qdd)
    if float(np.max(res)) > 1e-8:
        raise ConvergenceError(f"lift residual {np.max(res):.3e} exceeds 1e-8")
    # Closure of the full state over one period (wrap back to the first sample).
    q_wrap, qd_wrap, _ = _constrained_motion(vhc, *sol.eval(float(times[0] + sol.period)))
    gap = max(float(np.max(np.abs(q_wrap - q[0]))), float(np.max(np.abs(qd_wrap - qd[0]))))
    if gap > 1e-6:
        raise ConvergenceError(f"periodic closure gap {gap:.3e} exceeds 1e-6")
    return PeriodicTrajectory(t=times, q=q, qdot=qd, u=u, residuals=res,
                              t0=float(times[0]), period=sol.period,
                              vhc=vhc, scalar=sol, system=sys)
