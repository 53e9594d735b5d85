"""Boundary solutions of the singular reduced dynamics and their lift.

The reduced equation alpha(theta) theta'' + beta(theta) theta'^2 + gamma = 0
loses Lipschitz uniqueness where alpha vanishes: a one-parameter family of
solutions passes through (theta_s, v_s) with the forced crossing velocity
v_s = sqrt(-gamma/beta) and acceleration a_s = -(beta' v_s^2 + gamma') /
(alpha' + 2 beta) at theta_s. Y = theta'^2 solves alpha Y' + 2 beta Y = -2 gamma
in theta, theta'' = Y'/2 (Shiriaev, Perram & Canudas-de-Wit, IEEE TAC 50, 2005),
and its row at theta_s forces Y = v_s^2. Near theta_s, Y = P + C |xi|^kappa g,
xi = theta - theta_s, kappa = -2 beta_s/alpha' > 1, P and g smooth, g(theta_s) = 1;
the boundary state picks C. At an integer kappa the series of P can meet a
resonance, which puts xi^kappa log|xi| into Y unless it cancels. `solve_boundary`
collocates Y on each side, in that basis and a member that becomes the log term
at an integer kappa, for every kappa alike, and sums dtheta/sqrt(Y) for the times
by Gauss-Legendre quadrature. The solution is one periodic table
(`numdiff.PeriodicPiecewisePolynomial`) of quintic Hermite pieces in t through
xi, read with its first two derivatives: both sides, then their mirror image
about the far rest point, which closes the orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundaryUnreachableError, ConditionCheckError,
                     ConvergenceError, DomainError)
from .mech import MechanicalSystem, inverse_input
from .numdiff import PeriodicPiecewisePolynomial
from .vhc import ParametricVhc, ReducedModel, SingularityReport

Array = np.ndarray


def singular_acceleration(model: ReducedModel, report: SingularityReport) -> float:
    """Forced acceleration at the singular crossing (global-sign invariant).

    The coefficients and their slopes at theta_s come from `report`, the
    existence check of `model`: a report whose oriented beta and gamma differ
    from the model's at theta_s by more than 1e-12 relative (a batch and a
    scalar call may differ by an ulp) was checked on another model.
    """
    if not report.overall:
        raise ConditionCheckError("singular acceleration requires a passing existence report")
    model_bg = report.sign * np.asarray(model.coefficients(report.theta_s), dtype=float)[1:]
    if not np.allclose(model_bg, (report.beta_s, report.gamma_s), rtol=1e-12, atol=0.0):
        raise ConditionCheckError(
            f"existence report checked on another model: beta, gamma at theta_s read "
            f"{model_bg.tolist()} here, {[report.beta_s, report.gamma_s]} in the report")
    v2 = -report.gamma_s / report.beta_s
    denom = report.alpha_slope + 2.0 * report.beta_s
    if denom == 0.0:
        raise ConditionCheckError("degenerate crossing: alpha' + 2 beta vanishes")
    return float(-(report.beta_slope * v2 + report.gamma_slope) / denom)


# Nodes per Chebyshev-Lobatto panel: 24 hold theta'^2 to 4e-16 of a 30-digit solution on a
# kappa = 8 test model; on kappa = 3 and 4 ones, 16 nodes land 12 and 30 times further off.
COLLOCATION_NODES = 24
# Table pieces per side, uniform in sigma = sqrt|theta - theta_b| but for the last
# CROSSING_STEPS of them, which give way to 4 CROSSING_STEPS pieces graded as the fourth
# power toward theta_s (see `_side`). The reduced-equation residual of the kappa = 8 and
# 4/3 family orbits reads 2.1e-8 and 1.7e-8 at (64, 8), 1.3e-9 and 7.1e-9 at (128, 8),
# 1.3e-9 and 1.1e-9 at (128, 16) (`lift`'s gate: 1e-8); the first is set at theta_b,
# the second where the graded run begins.
SIGMA_STEPS = 128
CROSSING_STEPS = 16
REST_TOL = 1e-8       # |dtheta| up to which an endpoint is a rest point
LIFT_SAMPLES = 4096   # equal time samples of one period in `lift`


@dataclass
class ScalarSolution:
    """One boundary-to-boundary solution through the singular crossing (t_s = 0).

    `table` holds theta - theta_s over one period from t1, the mirror half
    included (see `solve_boundary`); its derivatives are theta' and theta''.
    Between rest endpoints that is a periodic orbit of period 2 (t2 - t1) from
    t0 = t1; otherwise only [t1, t2] is a solution.
    """

    t1: float
    t2: float
    dtheta1: float
    dtheta2: float
    v_s: float
    a_s: float
    theta_s: float
    table: PeriodicPiecewisePolynomial = field(repr=False)

    @property
    def at_rest(self) -> bool:
        return abs(self.dtheta1) <= REST_TOL and abs(self.dtheta2) <= REST_TOL

    @property
    def t0(self) -> float:
        return self.t1

    @property
    def period(self) -> float:
        return 2.0 * (self.t2 - self.t1)

    @property
    def crossings(self) -> tuple:
        """(time, crossing velocity, crossing acceleration) per crossing in one period."""
        return ((0.0, self.v_s, self.a_s), (2.0 * self.t2, -self.v_s, self.a_s))

    def eval(self, t):
        """(theta, theta', theta'') at time t; Python floats for one float t, arrays
        for an array of t.

        Any t for rest endpoints, where the orbit is periodic; t in [t1, t2]
        otherwise, else DomainError.
        """
        if not self.at_rest:
            t_arr = np.asarray(t)
            outside = t_arr[(t_arr < self.t1 - 1e-9) | (t_arr > self.t2 + 1e-9)]
            if outside.size:
                raise DomainError(f"t={outside[0]} outside solution window [{self.t1}, {self.t2}]")
        values = self.table.derivatives(t, 2)
        xi, dth, ddth = values if isinstance(t, float) else np.moveaxis(values, -1, 0)
        return xi + self.theta_s, dth, ddth


def _chebyshev_panel(n: int):
    """Lobatto nodes r_j = sin^2(pi j/2n), j = 0..n, of [0, 1], their barycentric weights
    and the differentiation matrix D, (D f)_i = f'(r_i)."""
    j = np.arange(n + 1)
    angle = 0.5 * math.pi / n * j
    weights = np.where(j % 2, -1.0, 1.0) * np.where(j % n, 1.0, 0.5)
    # r_i - r_j as a product of sines, free of a difference's cancellation.
    gaps = np.sin(angle[:, None] + angle) * np.sin(angle[:, None] - angle) + np.eye(n + 1)
    D = weights / weights[:, None] / gaps
    D[j, j] = 0.0
    D[j, j] = -D.sum(axis=1)
    return np.sin(angle) ** 2, weights, D


_PANEL = _chebyshev_panel(COLLOCATION_NODES - 1)


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [0, 1] (Golub & Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return 0.5 + 0.25 * (x - x[::-1]), 0.5 * (v[0] ** 2 + v[0, ::-1] ** 2)


_GAUSS = _gauss_legendre(8)   # sums a piece's time to rounding: its integrand is smooth in sigma


def _interpolate(x: Array, values: Array) -> Array:
    """Panel node values (one row per node) at the points x of [0, 1], barycentric
    (Berrut & Trefethen, SIAM Rev. 46, 2004); a point on a node takes its row."""
    nodes, weights, _ = _PANEL
    out = np.empty((x.size, values.shape[1]))
    for start in range(0, x.size, 256):      # 256 points a pass bound the work arrays
        gaps = x[start:start + 256, None] - nodes
        hit = gaps == 0.0
        gaps[hit] = 1.0
        k = weights / gaps
        out[start:start + 256] = (k @ values) / k.sum(axis=1)[:, None]
        point, node = np.nonzero(hit)
        out[start + point] = values[node]
    return out


def _solve(A: Array, b: Array, side: str, panel: str) -> Array:
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"{side} side: the {panel} panel's collocation system is singular",
                               {"side": side, "panel": panel}) from None


def _quintics(side: tuple, backward: bool, sign: float) -> Array:
    """Quintic Hermite pieces in t of xi along one side (`_side`) through xi, theta'
    and theta'' at both ends of each piece, in `PeriodicPiecewisePolynomial`'s layout:
    from theta_s if backward, with theta' times sign (-1 on the mirror half). A piece's
    lead and speed step keep their digits on a piece far shorter than theta'/theta'';
    its lead from the far end is the lead from its first node less step dt."""
    y, dy, ddy, h, lead, step = side
    if backward:
        y, dy, ddy, h, lead, step = (y[::-1], dy[::-1], ddy[::-1], h[::-1],
                                     (lead - step * h)[::-1], -step[::-1])
    y0, v0, a0 = y[:-1], sign * dy[:-1], ddy[:-1]
    gap, dv = sign * lead - 0.5 * a0 * h * h, h * (sign * step - a0 * h)
    da = h * h * (ddy[1:] - a0)
    c3 = (10.0 * gap - 4.0 * dv + 0.5 * da) / h ** 3
    c4 = (-15.0 * gap + 7.0 * dv - da) / h ** 4
    c5 = (6.0 * gap - 3.0 * dv + 0.5 * da) / h ** 5
    return np.array([c5, c4, c3, 0.5 * a0, v0, y0])


def _side(model: ReducedModel, side: str, theta_b: float, dtheta_b: float, theta_s: float,
          kappa: float, v_s: float, a_s: float):
    """From theta_b to theta_s: xi, the speed |theta'| and theta'' at the table nodes,
    and the time, lead and speed step of each piece between them."""
    nodes, _, D = _PANEL
    n, r_D = nodes.size, nodes[:, None] * D
    s = math.copysign(1.0, theta_s - theta_b)   # theta runs from theta_b toward theta_s
    span, half = abs(theta_s - theta_b), 0.5 * abs(theta_s - theta_b)
    # Boundary panel theta_b + s half r, crossing panel theta_s - s half r, r in [0, 1].
    thetas = np.r_[theta_b + s * half * nodes, theta_s - s * half * nodes]
    coeffs = np.asarray(model.coefficients(thetas), dtype=float)
    if not np.isfinite(coeffs).all():
        theta = float(thetas[~np.isfinite(coeffs).all(axis=0)][0])
        raise BoundaryUnreachableError(
            f"{side} side: the reduced model's coefficients are not finite at theta = {theta!r}",
            {"side": side, "theta": theta})
    (alpha_b, alpha_c), (beta_b, beta_c), (gamma_b, gamma_c) = coeffs.reshape(3, 2, n)

    def operator(alpha, beta, sign):
        # The part of alpha Y' + 2 beta Y that Y = Y(r = 0) + r X puts on X at the nodes.
        return (sign / half) * alpha[:, None] * (np.eye(n) + r_D) + np.diag(2.0 * beta * nodes)

    # Boundary panel: Y = Y_b + r Z with Y_b = theta_b'^2 keeps Y's relative accuracy next
    # to a rest point; the equation holds at every node, r = 0 included.
    y_b = dtheta_b * dtheta_b
    Z = _solve(operator(alpha_b, beta_b, s), -2.0 * (gamma_b + beta_b * y_b), side, "boundary")
    # Crossing panel: Y = v_s^2 + r Q + C |xi|^kappa g, xi = -s half r. g(theta_s) = 1 takes
    # the degenerate row of alpha g' + (kappa alpha/xi + 2 beta) g = 0 there.
    A = (-s / half) * alpha_c[:, None] * D + np.diag(np.r_[0.0, kappa * alpha_c[1:] / (
        -s * half * nodes[1:]) + 2.0 * beta_c[1:]])
    A[0] = np.eye(n)[0]
    g = _solve(A, np.eye(n)[0], side, "crossing branch")
    # For Q, C and L, P'(theta_s) = 2 a_s (Q(0) = -2 s half a_s) takes the degenerate row and
    # a last one joins the boundary panel; |xi|^kappa g solves the equation without gamma.
    # L weighs r^kappa g psi, psi = (1 - r^-d)/d, d = kappa - m for the integer m >= 2
    # nearest kappa: the equation takes (-s/half) alpha g r^(m-1) from it, for every kappa,
    # and it is 0 at both ends. At d = 0, psi = log r carries the xi^m log|xi| term of an
    # integer kappa whose resonance does not cancel; elsewhere it adds a line of solutions
    # along which Y does not change, and near an integer it keeps Q and C small.
    order = max(2, round(kappa))
    d = kappa - order
    A = np.zeros((n + 1, n + 2))
    A[:n, :n] = operator(alpha_c, beta_c, -s)
    A[0, :n], A[n, n - 1], A[n, n] = np.eye(n)[0], 1.0, half ** kappa * g[-1]
    A[1:n, n + 1] = (-s / half) * alpha_c[1:] * g[1:] * nodes[1:] ** (order - 1)
    if not A[n, n] > 0.0:
        raise ConvergenceError(f"{side} side: the crossing panel's collocation system is "
                               f"singular: |xi|^kappa g reads {float(A[n, n])!r} at its end, "
                               f"kappa = {kappa!r}", {"side": side, "panel": "crossing"})
    b = np.r_[-2.0 * s * half * a_s, -2.0 * (gamma_c[1:] + beta_c[1:] * v_s * v_s),
              y_b + Z[-1] - v_s * v_s]
    # At a large or an integer kappa polynomials hold |xi|^kappa g to rounding, and off an
    # integer psi adds another such line: the system is singular along them: lstsq.
    solution = np.linalg.lstsq(A, b, rcond=None)[0]
    Q, C, L = solution[:n], solution[n] * half ** kappa, solution[n + 1]   # C of r^kappa g

    # Table nodes, then quadrature points, as u = sigma/sigma_max and w = 1 - u, each exact
    # where it is small: the boundary panel reads r = 2 u^2, the crossing one 2 w (2 - w).
    # The last `out` uniform steps give way to w = w0 (j/J)^4, w0 = out/steps, J = 4 out,
    # whose first step matches theirs: a quintic's theta'' is off by (h/xi)^4 |xi|^kappa
    # there, level for kappa near 1 and falling toward theta_s for larger kappa.
    steps, out = SIGMA_STEPS, CROSSING_STEPS
    k, j = np.arange(steps - out + 1), np.arange(4 * out - 1, 0, -1)
    run = out / steps * (j / (4 * out)) ** 4
    u, w = np.r_[k / steps, 1.0 - run, 1.0], np.r_[(steps - k) / steps, run, 0.0]
    h = np.where(u[1:] <= 0.5, np.diff(u), -np.diff(w))
    m, (x, weights) = u.size, _GAUSS
    u = np.r_[u, (u[:-1, None] + h[:, None] * x).ravel()]
    w = np.r_[w, (w[1:, None] + h[:, None] * (1.0 - x)).ravel()]
    near = u * u <= 0.5
    Y, small, ddth = np.empty((3, u.size))
    r = 2.0 * u[near] ** 2
    Zr, dYr = _interpolate(r, np.column_stack([Z, Z + r_D @ Z])).T
    Y[near], ddth[near] = y_b + r * Zr, (0.5 * s / half) * dYr
    r = 2.0 * w[~near] * (2.0 - w[~near])
    Qr, dQr, gr, dgr = _interpolate(r, np.column_stack([Q, Q + r_D @ Q, g, kappa * g + r_D @ g])).T
    log_r = np.log(r, out=np.zeros_like(r), where=r > 0.0)   # r = 0 only at theta_s
    z = -d * log_r                                            # r^-d = e^z
    psi = np.divide(np.expm1(z), -d, out=log_r, where=z != 0.0)   # log r where d = 0
    amplitude, branch = C + L * psi, r ** (kappa - 1.0)
    excess = r * (Qr + branch * gr * amplitude)  # Y - v_s^2, exact where it is small
    Y[~near] = v_s * v_s + excess
    ddth[~near] = (-0.5 * s / half) * (dQr + branch * (dgr * amplitude + L * gr * np.exp(z)))
    if not np.all(Y[1:] > 0.0):
        # A guard: where Y reaches 0 short of theta_s, a passing existence report makes
        # gamma push it up, so only a forced report or broken coefficients get here.
        theta = float(theta_b + s * span * u[1:][~(Y[1:] > 0.0)].min() ** 2)
        raise BoundaryUnreachableError(f"{side} side: theta'^2 reaches 0 at theta = {theta!r} "
                                       "short of the crossing", {"side": side, "theta": theta})
    # The speed is base + small: sqrt(Y), or v_s plus what keeps the digits of Y - v_s^2. A
    # piece takes dt = 2 span u du/speed; its lead, the distance beyond its first node's
    # speed times t, is the integral of (speed - speed_0) dt.
    base = np.where(near, 0.0, v_s)
    small[near], small[~near] = np.sqrt(Y[near]), excess / (v_s + np.sqrt(Y[~near]))
    small[0] = dtheta_b
    dt_du = ((2.0 * span) * u[m:] / (base + small)[m:]).reshape(h.size, -1)
    beyond = (base[m:].reshape(h.size, -1) - base[:m - 1, None]) + (
        small[m:].reshape(h.size, -1) - small[:m - 1, None])
    xi = -s * span * w[:m] * (2.0 - w[:m])
    xi[0], xi[-1], ddth[m - 1] = theta_b - theta_s, 0.0, a_s
    return (xi, (base + small)[:m], ddth[:m], h * (dt_du @ weights),
            h * ((beyond * dt_du) @ weights), np.diff(base[:m]) + np.diff(small[:m]))


def solve_boundary(model: ReducedModel, report: SingularityReport,
                   theta1: float, dtheta1: float, theta2: float, dtheta2: float) -> ScalarSolution:
    """Solution with theta(t1) = theta1, theta(t2) = theta2 crossing the singularity.

    Endpoint velocities dtheta1, dtheta2 >= 0 select the branch on each side.
    Each side solves for theta'^2 in theta by collocation, and its times come
    from quadrature (see the module notes). Time origin: the crossing happens
    at t = 0. The table's second half is the mirror image theta(2 t2 - t).
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

    v_s, a_s = report.v_s, singular_acceleration(model, report)
    kappa = -2.0 * report.beta_s / report.alpha_slope
    if not 1.0 < kappa < math.inf:
        raise ConditionCheckError(f"crossing exponent kappa = {kappa!r} must be finite, above 1")
    left = _side(model, "left", theta1, dtheta1, th_s, kappa, v_s, a_s)
    right = _side(model, "right", theta2, dtheta2, th_s, kappa, v_s, a_s)

    # [t1, t2] runs up the left side and down the right one; then the mirror half.
    pieces = np.concatenate([_quintics(left, False, 1.0), _quintics(right, True, 1.0),
                             _quintics(right, False, -1.0), _quintics(left, True, -1.0)], axis=1)
    breaks = np.r_[-np.cumsum(left[3][::-1])[::-1], 0.0, np.cumsum(right[3][::-1])]
    t1, t2 = float(breaks[0]), float(breaks[-1])
    breaks = np.r_[breaks[:-1], 2.0 * t2 - breaks[:0:-1], t1 + 2.0 * (t2 - t1)]
    return ScalarSolution(t1=t1, t2=t2, dtheta1=dtheta1, dtheta2=dtheta2, v_s=v_s, a_s=a_s,
                          theta_s=th_s, table=PeriodicPiecewisePolynomial(breaks, pieces))


def make_periodic(sol: ScalarSolution) -> ScalarSolution:
    """`sol` itself, after checking that its endpoints are rest points.

    The table already holds the mirror half (`solve_boundary`); rest endpoints
    make its junctions C^2, so `sol` is a periodic orbit.
    """
    if not sol.at_rest:
        raise ConditionCheckError("a periodic orbit requires rest endpoints (dtheta = 0)")
    return sol


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
    scalar: ScalarSolution
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
    phi, dphi, ddphi = (np.asarray(curve(th)) for curve in (vhc.phi, vhc.dphi, vhc.ddphi))
    return phi, dphi * dth, ddphi * dth * dth + dphi * ddth


def lift(vhc: ParametricVhc, sol: ScalarSolution, sys: MechanicalSystem) -> PeriodicTrajectory:
    """Map a periodic scalar solution through the constraint to a full trajectory.

    The trajectory holds LIFT_SAMPLES equal time samples over one period.
    Inputs come from the actuated least-squares inverse; the unactuated force
    residual B_perp (M q'' + C q' + G) is recorded per sample and must stay
    below 1e-8 (it equals the reduced-equation residual). Every sample is
    evaluated, so each equals `full_state_at` at its time.
    """
    times = sol.t0 + sol.period * np.arange(LIFT_SAMPLES) / LIFT_SAMPLES
    q, qd, qdd = _constrained_motion(vhc, *sol.eval(times))
    u, res = inverse_input(sys, q, qd, qdd)
    if float(np.max(res)) > 1e-8:
        raise ConvergenceError(f"lift residual {np.max(res):.3e} exceeds 1e-8")
    # Closure: the end of the table's last piece, just short of the wrap, against the start.
    # One time as an array: a float read builds the table's list rows, which the trajectory keeps.
    t_end = np.nextafter(times[:1] + sol.period, -np.inf)
    q_end, qd_end, _ = _constrained_motion(vhc, *sol.eval(t_end))
    gap = max(float(np.max(np.abs(q_end - q[0]))), float(np.max(np.abs(qd_end - qd[0]))))
    if gap > 1e-6:
        raise ConvergenceError(f"periodic closure gap {gap:.3e} exceeds 1e-6")
    return PeriodicTrajectory(t=times, q=q, qdot=qd, u=u, residuals=res,
                              t0=float(times[0]), period=sol.period,
                              vhc=vhc, scalar=sol, system=sys)
