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

The solution is one periodic table of polynomial pieces
(`numdiff.PeriodicPiecewisePolynomial`): the RK45 dense-output quartics of
both sides, the bridge theta_s + v_s t + a_s t^2/2 across the window of
|theta - theta_s| < xi_cut, and the mirror image of all three about the far
rest point, which closes the orbit. Outside the bridge theta'' is the model's
quotient -(beta theta'^2 + gamma)/alpha; inside it, where that quotient is
0/0, theta'' is the quadratic through a_s and the quotient at both edges.
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
from .numdiff import PeriodicPiecewisePolynomial, central_derivative
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


# RHS evaluations one side of `solve_boundary` may spend. The default tic-toc
# and family runs take 758 to 914 per side, and RK45's count grows like tol^(-1/5).
RHS_BUDGET = 20_000


@dataclass
class ScalarSolution:
    """One boundary-to-boundary solution through the singular crossing (t_s = 0).

    `table` holds (theta, theta', bridge weight, bridge theta'') over one
    period from t1, the mirror half included (see `_orbit_table`).
    """

    t1: float
    t2: float
    dtheta1: float
    dtheta2: float
    v_s: float
    a_s: float
    coefficients: Callable[[Array], Array] = field(repr=False)
    table: PeriodicPiecewisePolynomial = field(repr=False)

    def eval(self, t):
        """(theta, theta', theta'') at time t in [t1, t2]; arrays for an array of t."""
        t_arr = np.asarray(t)
        outside = t_arr[(t_arr < self.t1 - 1e-9) | (t_arr > self.t2 + 1e-9)]
        if outside.size:
            raise DomainError(f"t={outside[0]} outside solution window [{self.t1}, {self.t2}]")
        return self.state(t)

    def state(self, t):
        """(theta, theta', theta'') at any time t; arrays for an array of t.

        theta'' is the model quotient, or the bridge quadratic where the bridge
        weight w is 1: there (1 - w) drops the quotient and alpha + w keeps its
        denominator off zero.
        """
        th, dth, w, bridge_acc = self.table(t).T
        alpha, beta, gamma = self.coefficients(th)
        return th, dth, (1.0 - w) * -(beta * dth * dth + gamma) / (alpha + w) + bridge_acc


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
        return self.base.state(t)


def _series_offset(xi: float, v_s: float, a_s: float, inward: int) -> float:
    """Time to cover distance xi from the crossing along the series (inward=-1 left)."""
    # Root d > 0 of v_s d + inward * a_s d^2 / 2 = xi, in the cancellation-free form.
    return 2.0 * xi / (v_s + math.sqrt(v_s * v_s + 2.0 * inward * a_s * xi))


def _pieces(coeffs: Array, x0: Array, rate: Array) -> Array:
    """Coefficients of p_i(x0_i + rate_i d) in powers of d, from those of p_i in powers of x.

    Both have the layout (piece, power, component).
    """
    k = np.arange(coeffs.shape[1])
    # p(x0 + y) = sum_k y^k sum_{m >= k} C(m, k) x0^(m - k) c_m
    shift = (np.array([[math.comb(m, j) for m in k] for j in k])
             * x0[:, None, None] ** np.maximum(k - k[:, None], 0))
    return np.einsum("ikm,imv->ikv", shift, coeffs) * (rate[:, None] ** k)[..., None]


def _quartics(ode):
    """RK45 dense-output quartics of a solve_ivp solution, one per step of ode.sol.ts.

    A step interpolates y_old + h sum_k Q[:, k] x^(k+1), x = (s - t_old)/h
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6). Returns their
    coefficients in powers of x for (theta, theta', 0, 0), x at both ends of
    each step, and dx/ds.
    """
    steps = ode.sol.interpolants
    h = np.array([it.h for it in steps])
    t_old = np.array([it.t_old for it in steps])
    coeffs = np.zeros((len(steps), 5, 4))
    coeffs[:, 0, :2] = [it.y_old for it in steps]
    coeffs[:, 1:, :2] = h[:, None, None] * np.array([it.Q.T for it in steps])
    return coeffs, (ode.sol.ts[:-1] - t_old) / h, (ode.sol.ts[1:] - t_old) / h, 1.0 / h


def _orbit_table(left, right, t1: float, t2: float, bridge: Array, dt_left: float,
                 dt_right: float) -> PeriodicPiecewisePolynomial:
    """(theta, theta', bridge weight, bridge theta'') over one period from t1, as one table.

    [t1, t2] holds the left side's quartics, the bridge (`bridge` in powers of
    t) on [-dt_left, dt_right] and the right side's quartics; [t2, t1 + period]
    holds its mirror image theta(2 t2 - t), with theta' negated.
    """
    l_c, l_x0, l_x1, l_rate = _quartics(left)
    r_c, r_x1, r_x0, r_rate = (a[::-1] for a in _quartics(right))   # time runs backward
    coeffs = np.concatenate([l_c, bridge[None], r_c])
    x0, x1 = np.r_[l_x0, -dt_left, r_x0], np.r_[l_x1, dt_right, r_x1]
    rate = np.r_[l_rate, 1.0, r_rate]
    breaks = np.r_[t1 + left.sol.ts[:-1], -dt_left, dt_right, t2 + right.sol.ts[-2:0:-1], t2]
    mirrored = _pieces(coeffs[::-1], x1[::-1], -rate[::-1]) * [1.0, -1.0, 1.0, 1.0]
    table = np.concatenate([_pieces(coeffs, x0, rate), mirrored])
    breaks = np.r_[breaks[:-1], 2.0 * t2 - breaks[:0:-1], t1 + 2.0 * (t2 - t1)]
    return PeriodicPiecewisePolynomial(breaks, table.transpose(1, 0, 2)[::-1])


def solve_boundary(model: ReducedModel, report: SingularityReport,
                   theta1: float, dtheta1: float, theta2: float, dtheta2: float,
                   xi_cut: float = 1e-6, tol: float = 1e-10,
                   t_max: float = 1e3) -> ScalarSolution:
    """Solution with theta(t1) = theta1, theta(t2) = theta2 crossing the singularity.

    Endpoint velocities dtheta1, dtheta2 >= 0 select the branch on each side;
    each side is integrated from its endpoint toward the crossing (RK45,
    rtol = atol = tol, at most RHS_BUDGET right-hand sides), stopped at
    |theta - theta_s| = xi_cut, and joined by the forced-velocity series. Time
    origin: the crossing happens at t = 0.
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

    def sweep(side, y0, t_span, target):
        count = 0

        def rhs(t, y):
            nonlocal count
            count += 1
            if count > RHS_BUDGET:
                raise BoundaryUnreachableError(
                    f"{side} sweep spent its budget of {RHS_BUDGET} right-hand sides "
                    "before reaching the singular crossing",
                    {"side": side, "final_state": y.tolist(), "time": float(t), "rhs_evals": count})
            return [y[1], accel(*y)]

        def cut(t, y):
            return y[0] - target
        cut.terminal = True

        ode = solve_ivp(rhs, t_span, y0, method="RK45", rtol=tol, atol=tol,
                        dense_output=True, events=[cut])
        if not ode.t_events[0].size:
            raise BoundaryUnreachableError(
                f"{side} boundary state cannot reach the singular crossing",
                {"side": side, "final_state": ode.y[:, -1].tolist(), "time": float(ode.t[-1]),
                 "rhs_evals": count})
        dth_cut = float(ode.y_events[0][0][1])
        if abs(dth_cut - v_s) > 0.2 * v_s + 0.2:
            raise ConvergenceError(
                f"{side} sweep reached the cut with velocity {dth_cut:.6g}, "
                f"far from the forced crossing velocity {v_s:.6g}")
        return ode, abs(float(ode.t_events[0][0]))

    # Left side forward in time from (theta1, dtheta1) up to theta_s - xi_cut,
    # right side backward in time from (theta2, dtheta2) down to theta_s + xi_cut.
    left, T_left = sweep("left", [theta1, dtheta1], (0.0, t_max), th_s - xi_cut)
    right, T_right = sweep("right", [theta2, dtheta2], (0.0, -t_max), th_s + xi_cut)

    dt_left = _series_offset(xi_cut, v_s, a_s, inward=-1)
    dt_right = _series_offset(xi_cut, v_s, a_s, inward=+1)
    t1 = -(T_left + dt_left)
    t2 = dt_right + T_right

    # Inside the bridge theta and theta' follow the series, and theta'' is the
    # quadratic through the crossing acceleration and the two safe edge values,
    # which avoids the 0/0 quotient there.
    bridge = np.zeros((5, 4))           # (theta, theta', weight, theta'') in powers of t
    bridge[:3, 0] = th_s, v_s, 0.5 * a_s
    bridge[:2, 1] = v_s, a_s
    bridge[0, 2] = 1.0
    bridge[:3, 3] = np.polyfit([-dt_left, 0.0, dt_right],
                               [accel(*left.sol(T_left)), a_s, accel(*right.sol(-T_right))],
                               2)[::-1]
    return ScalarSolution(t1=t1, t2=t2, dtheta1=dtheta1, dtheta2=dtheta2, v_s=v_s, a_s=a_s,
                          coefficients=model.coefficients,
                          table=_orbit_table(left, right, t1, t2, bridge, dt_left, dt_right))


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
