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
distance XI_CUT before theta_s, and bridges the crossing with the series
above; endpoint conditions hold by construction.

Each side runs the Dormand-Prince RK5(4) pair (Dormand & Prince, J. Comput.
Appl. Math. 6, 1980) with its quartic dense output and the step control of
Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6. `rk45_sweep` repeats scipy's
`solve_ivp(method="RK45")` operation for operation without importing it,
which keeps start-up short; tests check its steps bit for bit against
scipy's.

The solution is one periodic table of polynomial pieces
(`numdiff.PeriodicPiecewisePolynomial`): the RK45 dense-output quartics of
both sides, the bridge theta_s + v_s t + a_s t^2/2 across the window of
|theta - theta_s| < XI_CUT, and the mirror image of all three about the far
rest point, which closes the orbit. Outside the bridge theta'' is the model's
quotient -(beta theta'^2 + gamma)/alpha; inside it, where that quotient is
0/0, theta'' is the quadratic through a_s and the quotient at both edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (BoundaryUnreachableError, ConditionCheckError,
                     ConvergenceError, DomainError)
from .mech import MechanicalSystem, inverse_input
from .numdiff import PeriodicPiecewisePolynomial, bisect, central_derivative
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


# Each side of `solve_boundary` integrates with RK45 at rtol = atol = ODE_TOL
# and stops XI_CUT from theta_s, where the series bridge takes over.
XI_CUT = 1e-6
ODE_TOL = 1e-10
# RHS evaluations one side of `solve_boundary` may spend. The default tic-toc and
# family runs take 758 to 914 per side, and RK45's count grows like ODE_TOL^(-1/5).
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


# The Dormand-Prince RK5(4) tableau, its error weights E (5th minus 4th order)
# and the matrix P of the quartic dense output, as in scipy's RK45.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
# Step-size control: safety factor and bounds on one step's change of h.
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10


@dataclass
class RkSteps:
    """Accepted RK45 steps of one sweep, each with its dense-output quartic.

    Step i starts at t_old[i] from y_old[i] and has signed length h[i]; its
    quartic is y_old + h sum_k Q[:, k] x^(k+1), x = (s - t_old)/h (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6). `t`, `y` are the last state: the
    cut and the quartic's value there if `reached`, else the last step's end.
    """

    t_old: Array
    h: Array
    y_old: Array
    Q: Array
    t: float
    y: Array
    reached: bool


def _rms(x: Array) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def rk45_sweep(fun, y0: Array, t_bound: float, target: float, tol: float) -> RkSteps:
    """RK45 from t = 0 toward t_bound until y[0] crosses `target`.

    Repeats scipy's `solve_ivp(fun, (0, t_bound), y0, method="RK45",
    rtol=tol, atol=tol)` with a terminal event y[0] - target: its first step,
    RMS error norm and step control, FSAL stages, 10-ulp minimum step and
    t_bound clamp. The event time is bisected to full resolution on the last
    step's quartic, where scipy runs brentq. Stops with `reached` False at
    t_bound (at once if it is 0), or when the step falls below its minimum (a
    NaN right-hand side shrinks it there).
    """
    direction = np.sign(t_bound)
    y = np.asarray(y0, dtype=float)
    t, f = 0.0, fun(0.0, y)
    steps = ([], [], [], [])   # t_old, h, y_old and Q of each accepted step
    g = y[0] - target

    def done(reached):
        return RkSteps(*map(np.array, steps), t, y, reached)

    if t_bound == 0.0:
        return done(False)
    # Initial step (Hairer, Norsett & Wanner, II.4), scipy's select_initial_step.
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_bound))
    d2 = _rms((fun(h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, abs(t_bound))
    K = np.empty((7, y.size))
    while True:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return done(False)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** -0.2))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            rejected = True
        for column, value in zip(steps, (t, h, y, K.T.dot(_P))):
            column.append(value)
        t_old, y_old, (t, y, f) = t, y, (t_new, y_new, f_new)
        g_old, g = g, y[0] - target
        if (g_old <= 0 and g >= 0) or (g_old >= 0 and g <= 0):
            Q = steps[3][-1]

            def dense(s):
                return h * np.dot(Q, np.cumprod(np.full(4, (s - t_old) / h))) + y_old

            lo, hi, g_lo, g_hi = (t_old, t, g_old, g) if direction > 0 else (t, t_old, g, g_old)
            t = bisect(lambda s: dense(s)[0] - target, lo, hi, g_lo, g_hi, 0.0)
            y = dense(t)
            return done(True)
        if direction * (t - t_bound) >= 0:
            return done(False)


def _quartics(side: RkSteps):
    """The quartics of `side` in powers of x for (theta, theta', 0, 0).

    Returns the coefficients, x at both ends of each step (up to the cut on
    the last one) and dx/ds.
    """
    ts = np.r_[side.t_old, side.t]
    coeffs = np.zeros((len(side.h), 5, 4))
    coeffs[:, 0, :2] = side.y_old
    coeffs[:, 1:, :2] = side.h[:, None, None] * side.Q.transpose(0, 2, 1)
    return coeffs, (ts[:-1] - side.t_old) / side.h, (ts[1:] - side.t_old) / side.h, 1.0 / side.h


def _orbit_table(left: RkSteps, right: RkSteps, t1: float, t2: float, bridge: Array,
                 dt_left: float, dt_right: float) -> PeriodicPiecewisePolynomial:
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
    breaks = np.r_[t1 + left.t_old, -dt_left, dt_right, t2 + right.t_old[:0:-1], t2]
    mirrored = _pieces(coeffs[::-1], x1[::-1], -rate[::-1]) * [1.0, -1.0, 1.0, 1.0]
    table = np.concatenate([_pieces(coeffs, x0, rate), mirrored])
    breaks = np.r_[breaks[:-1], 2.0 * t2 - breaks[:0:-1], t1 + 2.0 * (t2 - t1)]
    return PeriodicPiecewisePolynomial(breaks, table.transpose(1, 0, 2)[::-1])


def solve_boundary(model: ReducedModel, report: SingularityReport,
                   theta1: float, dtheta1: float, theta2: float, dtheta2: float,
                   t_max: float = 1e3) -> ScalarSolution:
    """Solution with theta(t1) = theta1, theta(t2) = theta2 crossing the singularity.

    Endpoint velocities dtheta1, dtheta2 >= 0 select the branch on each side;
    each side is integrated from its endpoint toward the crossing (RK45,
    rtol = atol = ODE_TOL, at most RHS_BUDGET right-hand sides), stopped at
    |theta - theta_s| = XI_CUT, and joined by the forced-velocity series. Time
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
    if min(th_s - theta1, theta2 - th_s) < 10.0 * XI_CUT:
        raise DomainError("boundary positions too close to the singular point")

    v_s = report.v_s
    a_s = singular_acceleration(model, report)

    def accel(th, dth):
        alpha, beta, gamma = model.coefficients(th)
        return -(beta * dth * dth + gamma) / alpha

    def sweep(side, y0, t_bound, target):
        count = 0

        def rhs(t, y):
            nonlocal count
            count += 1
            if count > RHS_BUDGET:
                raise BoundaryUnreachableError(
                    f"{side} sweep spent its budget of {RHS_BUDGET} right-hand sides "
                    "before reaching the singular crossing",
                    {"side": side, "final_state": y.tolist(), "time": float(t), "rhs_evals": count})
            return np.array([y[1], accel(*y)])

        steps = rk45_sweep(rhs, y0, t_bound, target, ODE_TOL)
        if not steps.reached:
            raise BoundaryUnreachableError(
                f"{side} boundary state cannot reach the singular crossing",
                {"side": side, "final_state": steps.y.tolist(), "time": float(steps.t),
                 "rhs_evals": count})
        dth_cut = float(steps.y[1])
        if abs(dth_cut - v_s) > 0.2 * v_s + 0.2:
            raise ConvergenceError(
                f"{side} sweep reached the cut with velocity {dth_cut:.6g}, "
                f"far from the forced crossing velocity {v_s:.6g}")
        return steps

    # Left side forward in time from (theta1, dtheta1) up to theta_s - XI_CUT,
    # right side backward in time from (theta2, dtheta2) down to theta_s + XI_CUT.
    left = sweep("left", [theta1, dtheta1], t_max, th_s - XI_CUT)
    right = sweep("right", [theta2, dtheta2], -t_max, th_s + XI_CUT)
    T_left, T_right = abs(left.t), abs(right.t)

    dt_left = _series_offset(XI_CUT, v_s, a_s, inward=-1)
    dt_right = _series_offset(XI_CUT, v_s, a_s, inward=+1)
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
                               [accel(*left.y), a_s, accel(*right.y)],
                               2)[::-1]
    return ScalarSolution(t1=t1, t2=t2, dtheta1=dtheta1, dtheta2=dtheta2, v_s=v_s, a_s=a_s,
                          coefficients=model.coefficients,
                          table=_orbit_table(left, right, t1, t2, bridge, dt_left, dt_right))


def make_periodic(sol: ScalarSolution) -> PeriodicScalarSolution:
    """The periodic orbit, period 2 (t2 - t1), of a solution with rest endpoints.

    The table already holds the mirror half (`_orbit_table`); rest endpoints
    make its junctions C^2. Checks them and records the crossings.
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
    # Closure: the end of the table's last piece, just short of the wrap, against the start.
    t_end = float(np.nextafter(times[0] + sol.period, -np.inf))
    q_end, qd_end, _ = _constrained_motion(vhc, *sol.eval(t_end))
    gap = max(float(np.max(np.abs(q_end - q[0]))), float(np.max(np.abs(qd_end - qd[0]))))
    if gap > 1e-6:
        raise ConvergenceError(f"periodic closure gap {gap:.3e} exceeds 1e-6")
    return PeriodicTrajectory(t=times, q=q, qdot=qd, u=u, residuals=res,
                              t0=float(times[0]), period=sol.period,
                              vhc=vhc, scalar=sol, system=sys)
