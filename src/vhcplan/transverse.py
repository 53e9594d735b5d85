"""Transverse coordinates around a periodic orbit and orbital stabilization.

A moving chart splits the phase space near the orbit into a scalar phase tau
on [-pi, pi) and five transverse coordinates rho that vanish exactly on the
orbit. Two charts ship:

  * the tic-toc chart: tau = atan2(x, xdot), rho = (constraint values,
    their velocities, radial deviation in the (x, xdot) plane), matching the
    reference maneuver whose (x, xdot) projection is the unit circle;
  * a family chart built from any constraint-family orbit, applying the same
    recipe in the scaled reduced phase plane (theta, thetadot) with
    constraint-error coordinates (x - phi1, z - phi2) and their rates.

Differentiating rho along the dynamics and dividing by taudot yields
drho/dtau = f(rho, tau, w) with input deviation w = u - u*(tau); finite
differences of f give the periodic pair A(tau), B(tau) used for the
controllability Gramian, the periodic LQR gain schedule and the monodromy
(period map) spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import schur

from .errors import ConditionCheckError, ConvergenceError, DomainError, OutsideTubeError
from .mech import MechanicalSystem, eval_accel, tic_toc_input
from .numdiff import PeriodicPiecewisePolynomial, cubic_coefficients, matvec
from .singular_solver import PeriodicTrajectory
from .vhc import FamilyParameters

Array = np.ndarray

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Map an angle, or each entry of an array of angles, to [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


class PeriodicMatrixSpline:
    """Periodic cubic interpolation of array-valued samples on [-pi, pi).

    `numdiff.cubic_coefficients` gives the periodic spline's cubics and the
    shared `PeriodicPiecewisePolynomial` evaluates them, for one tau or an
    array of them. Tests check both bit for bit against scipy's periodic
    `CubicSpline`.
    """

    def __init__(self, taus: Array, values: Array):
        t_ext = np.append(taus, taus[0] + TWO_PI)
        v_ext = np.concatenate([values, values[:1]], axis=0)
        self._lo = float(taus[0])
        self._table = PeriodicPiecewisePolynomial(
            t_ext, cubic_coefficients(t_ext, v_ext))

    def __call__(self, tau: float | Array) -> Array:
        return self._table(self._lo + (tau - self._lo) % TWO_PI)


class TicTocChart:
    """Reference chart of the tic-toc orbit (unit circle in the (x, xdot) plane).

    Chart methods take a single point (q, qd of shape (3,), scalar tau, rho of
    shape (5,)) or a batch along one leading axis (shapes (k, 3), (k,) and
    (k, 5)). Unpacking `q.T` and packing `np.array([...]).T` handle both with
    one code path, and keep a single point on numpy scalars, which is cheap.

    `invert_guess(tau, rho)` is the exact inverse of `forward` inside the
    tube of radius `tube_radius` in rho; `chart_invert` relies on that and
    only checks the residual.
    """

    tube_radius = 1.0

    def forward(self, q: Array, qd: Array):
        x, z, psi = q.T
        xd, zd, psid = qd.T
        tau = wrap_angle(np.arctan2(x, xd))
        rho = np.array([
            z + 0.5 * x * x,
            psi - 0.5 * math.pi + np.arctan(2.0 * x),
            x * xd + zd,
            psid + 2.0 * xd / (1.0 + 4.0 * x * x),
            np.hypot(x, xd) - 1.0,
        ]).T
        return tau, rho

    def jacobian(self, q: Array, qd: Array) -> Array:
        x = q.T[0]
        xd = qd.T[0]
        D = x * x + xd * xd
        if np.any(D == 0.0):
            raise OutsideTubeError("chart differential undefined at x = xdot = 0")
        s4 = 1.0 + 4.0 * x * x
        r = np.sqrt(D)
        J = np.zeros(np.shape(x) + (6, 6))
        J[..., 0, 0] = xd / D
        J[..., 0, 3] = -x / D
        J[..., 1, 0] = x
        J[..., 1, 1] = 1.0
        J[..., 2, 0] = 2.0 / s4
        J[..., 2, 2] = 1.0
        J[..., 3, 0] = xd
        J[..., 3, 3] = x
        J[..., 3, 4] = 1.0
        J[..., 4, 0] = -16.0 * x * xd / (s4 * s4)
        J[..., 4, 3] = 2.0 / s4
        J[..., 4, 5] = 1.0
        J[..., 5, 0] = x / r
        J[..., 5, 3] = xd / r
        return J

    def reference_input(self, tau) -> Array:
        return tic_toc_input(tau)

    def invert_guess(self, tau, rho: Array):
        rho0, rho1, rho2, rho3, rho4 = rho.T
        r = 1.0 + rho4
        x = r * np.sin(tau)
        xd = r * np.cos(tau)
        z = rho0 - 0.5 * x * x
        psi = rho1 + 0.5 * math.pi - np.arctan(2.0 * x)
        zd = rho2 - x * xd
        psid = rho3 - 2.0 * xd / (1.0 + 4.0 * x * x)
        return np.array([x, z, psi]).T, np.array([xd, zd, psid]).T


# Equal time intervals over one period at which `FamilyChart` samples the
# orbit for its phase-to-time interpolant.
FAMILY_CHART_SAMPLES = 8192


class FamilyChart:
    """Same chart recipe applied to a constraint-family orbit.

    The reduced phase plane (theta, thetadot) is scaled by the orbit amplitude
    and angular rate so it is near-circular; theta is read off the thrust
    angle, theta_hat = (psi - psi_s)/k2, and the remaining coordinates are the
    constraint errors x - phi1(theta_hat), z - phi2(theta_hat) and their rates.
    The radial coordinate is measured from r*(tau), the orbit's radius at its
    phase: the time of a phase comes from one cubic Hermite interpolant of t
    over the phase samples of construction, and r* and dr*/dtau are evaluated
    exactly on the orbit at that time. Methods accept a single point or a
    batch, and `invert_guess` is the exact inverse of `forward`, as for
    `TicTocChart`.
    """

    tube_radius = 1.0

    def __init__(self, traj: PeriodicTrajectory, params: FamilyParameters):
        self.traj = traj
        self.vhc = traj.vhc
        self.psi_s = float(params.psi_s)
        self.k2 = float(params.k2)
        scalar = traj.scalar
        self.omega = TWO_PI / scalar.period
        n = FAMILY_CHART_SAMPLES
        ts = scalar.t0 + scalar.period * np.arange(n + 1) / n
        thetas, dthetas, ddthetas = scalar.eval(ts)
        self.theta_scale = float(np.max(np.abs(thetas)))
        p, v = self._pv(thetas, dthetas)
        tau_raw = np.unwrap(np.arctan2(p, v))
        if np.any(np.diff(tau_raw) <= 0.0):
            raise ConditionCheckError("phase is not monotone along the family orbit")
        if abs((tau_raw[-1] - tau_raw[0]) - TWO_PI) > 1e-6:
            raise ConditionCheckError("phase winding along the family orbit is not one turn")
        # t over the unwrapped phase, with the exact slope dt/dtau = 1/taudot.
        _, taudot, _ = self._phase_rates(thetas, dthetas, ddthetas)
        self._time_of_phase = PeriodicPiecewisePolynomial(
            tau_raw, cubic_coefficients(tau_raw, ts, 1.0 / taudot))

    # -- reduced-plane helpers ------------------------------------------------

    def _pv(self, theta, dtheta):
        return theta / self.theta_scale, dtheta / (self.omega * self.theta_scale)

    def _phase_rates(self, theta, dtheta, ddtheta):
        """Radius r in the scaled reduced plane and the rates taudot, rdot along the orbit."""
        p, v = self._pv(theta, dtheta)
        r = np.hypot(p, v)
        pdot = dtheta / self.theta_scale
        vdot = ddtheta / (self.omega * self.theta_scale)
        return r, (v * pdot - p * vdot) / (r * r), (p * pdot + v * vdot) / r

    def _orbit_radial(self, tau):
        """r*(tau) and dr*/dtau on the orbit."""
        r, taudot, rdot = self._phase_rates(*self.traj.scalar.eval(self._time_of_phase(tau)))
        return r, rdot / taudot

    # -- chart interface ------------------------------------------------------

    def forward(self, q: Array, qd: Array):
        x, z, psi = q.T
        xd, zd, psid = qd.T
        th = (psi - self.psi_s) / self.k2
        dth = psid / self.k2
        p, v = self._pv(th, dth)
        tau = wrap_angle(np.arctan2(p, v))
        phi = self.vhc.phi(th).T
        dphi = self.vhc.dphi(th).T
        r_star, _ = self._orbit_radial(tau)
        rho = np.array([
            x - phi[0],
            z - phi[1],
            xd - dphi[0] * dth,
            zd - dphi[1] * dth,
            np.hypot(p, v) - r_star,
        ]).T
        return tau, rho

    def jacobian(self, q: Array, qd: Array) -> Array:
        psi = q.T[2]
        psid = qd.T[2]
        th = (psi - self.psi_s) / self.k2
        dth = psid / self.k2
        p, v = self._pv(th, dth)
        D = p * p + v * v
        if np.any(D == 0.0):
            raise OutsideTubeError("chart differential undefined at the reduced-plane origin")
        r = np.sqrt(D)
        tau = wrap_angle(np.arctan2(p, v))
        _, dr_star = self._orbit_radial(tau)
        dphi = self.vhc.dphi(th).T
        ddphi = self.vhc.ddphi(th).T
        cp = 1.0 / (self.k2 * self.theta_scale)                 # dp/dpsi
        cv = 1.0 / (self.k2 * self.omega * self.theta_scale)   # dv/dpsid
        J = np.zeros(np.shape(psi) + (6, 6))
        J[..., 0, 2] = (v / D) * cp
        J[..., 0, 5] = -(p / D) * cv
        J[..., 1, 0] = 1.0
        J[..., 1, 2] = -dphi[0] / self.k2
        J[..., 2, 1] = 1.0
        J[..., 2, 2] = -dphi[1] / self.k2
        J[..., 3, 2] = -ddphi[0] * dth / self.k2
        J[..., 3, 3] = 1.0
        J[..., 3, 5] = -dphi[0] / self.k2
        J[..., 4, 2] = -ddphi[1] * dth / self.k2
        J[..., 4, 4] = 1.0
        J[..., 4, 5] = -dphi[1] / self.k2
        J[..., 5, 2] = (p / r) * cp - dr_star * (v / D) * cp
        J[..., 5, 5] = (v / r) * cv + dr_star * (p / D) * cv
        return J

    def reference_input(self, tau) -> Array:
        t = self._time_of_phase(tau)
        return self.traj.full_state_at(t)[3]

    def invert_guess(self, tau, rho: Array):
        rho0, rho1, rho2, rho3, rho4 = rho.T
        r_star, _ = self._orbit_radial(tau)
        r = r_star + rho4
        p = r * np.sin(tau)
        v = r * np.cos(tau)
        th = self.theta_scale * p
        dth = self.omega * self.theta_scale * v
        psi = self.psi_s + self.k2 * th
        psid = self.k2 * dth
        phi = self.vhc.phi(th).T
        dphi = self.vhc.dphi(th).T
        x = rho0 + phi[0]
        z = rho1 + phi[1]
        xd = rho2 + dphi[0] * dth
        zd = rho3 + dphi[1] * dth
        return np.array([x, z, psi]).T, np.array([xd, zd, psid]).T


# Largest forward-map residual that `chart_invert` accepts.
CHART_INVERT_TOL = 1e-12


def chart_invert(chart, tau, rho: Array):
    """Phase-space point with the given chart coordinates.

    Takes a scalar tau with rho of shape (5,), or a batch: rho of shape
    (k, 5) with tau of shape (k,) or one tau for all. The point is the
    chart's exact inverse `invert_guess`, checked by one forward map. Raises
    OutsideTubeError if any rho leaves the tube or any point's forward-map
    residual is not below CHART_INVERT_TOL.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.linalg.norm(rho, axis=-1) > chart.tube_radius):
        raise OutsideTubeError(f"requested rho leaves the chart tube (radius {chart.tube_radius})")
    tau = wrap_angle(np.broadcast_to(np.asarray(tau, dtype=float), rho.shape[:-1]))
    q, qd = chart.invert_guess(tau, rho)
    tau_b, rho_b = chart.forward(q, qd)
    residual = max(float(np.max(np.abs(wrap_angle(tau_b - tau)))),
                   float(np.max(np.abs(rho_b - rho))))
    if not residual < CHART_INVERT_TOL:
        raise OutsideTubeError(f"chart inverse misses its coordinates by {residual:.3e} "
                               f"(tolerance {CHART_INVERT_TOL:.1e})")
    return q, qd


@dataclass
class LtvModel:
    """Periodic linearization drho/dtau = A(tau) rho + B(tau) w on [-pi, pi).

    `a_of(tau)` and `b_of(tau)` are the periodic cubic splines of A and B.
    """

    taus: Array
    A: Array
    B: Array
    f0_max: float
    a_of: PeriodicMatrixSpline = field(init=False, repr=False)
    b_of: PeriodicMatrixSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.a_of = PeriodicMatrixSpline(self.taus, self.A)
        self.b_of = PeriodicMatrixSpline(self.taus, self.B)


# Grid nodes whose stencils `linearize` evaluates in one batched call: 64
# nodes make 1,856 points, enough to amortize the per-call overhead while the
# working arrays stay near 1 MB.
LINEARIZE_BLOCK = 64
# Difference steps of `linearize` in each rho and each input coordinate.
RHO_STEP = 1e-6
W_STEP = 1e-4


def linearize(chart, sys: MechanicalSystem, traj: PeriodicTrajectory,
              n_grid: int = 512) -> LtvModel:
    """Finite-difference periodic linearization of the transverse dynamics.

    Central differences with one Richardson step (steps RHO_STEP in rho and
    W_STEP in w); the chart/trajectory pair is
    validated first (on-orbit states must map to rho ~ 0) and the on-orbit
    vector field f(0, tau, 0) must vanish to 1e-9 at every grid node. Each
    node's stencil is the nominal point plus the shifts +h, -h, +h/2, -h/2 of
    every rho and w coordinate; the stencils of LINEARIZE_BLOCK nodes go
    through the chart, the model and the chart Jacobian as one batch.
    """
    q, qd = traj.state_at(traj.t0 + traj.period * np.arange(8) / 8.0)
    _, rho = chart.forward(q, qd)
    if float(np.max(np.abs(rho))) > 1e-8:
        raise ConditionCheckError("chart does not vanish on the supplied trajectory")

    n_rho, n_w = 5, sys.n - 1
    steps = np.array([RHO_STEP] * n_rho + [W_STEP] * n_w)
    n_cols = steps.size
    stencil = np.zeros((1 + 4 * n_cols, n_cols))   # row 0: the nominal point
    for j, h in enumerate(steps):
        stencil[1 + 4 * j:5 + 4 * j, j] = h * np.array([1.0, -1.0, 0.5, -0.5])

    taus = -math.pi + TWO_PI * np.arange(n_grid) / n_grid
    A = np.empty((n_grid, n_rho, n_rho))
    B = np.empty((n_grid, n_rho, n_w))
    f0_max = 0.0
    for start in range(0, n_grid, LINEARIZE_BLOCK):
        node_tau = taus[start:start + LINEARIZE_BLOCK]
        k = node_tau.size
        tau = np.repeat(node_tau, stencil.shape[0])
        q, qd = chart_invert(chart, tau, np.tile(stencil[:, :n_rho], (k, 1)))
        u = chart.reference_input(node_tau)[:, None, :] + stencil[:, n_rho:]
        qdd = eval_accel(sys, q, qd, u.reshape(-1, n_w))
        rates = matvec(chart.jacobian(q, qd), np.concatenate([qd, qdd], axis=1))
        taudot = rates[:, 0]
        if np.any(taudot <= 0.0):
            raise ConditionCheckError(f"phase rate is not positive at tau={tau[taudot <= 0.0][0]}")
        f = (rates[:, 1:] / taudot[:, None]).reshape(k, -1, n_rho)
        f0_max = max(f0_max, float(np.max(np.abs(f[:, 0]))))
        shifted = f[:, 1:].reshape(k, n_cols, 4, n_rho)
        d1 = (shifted[:, :, 0] - shifted[:, :, 1]) / (2.0 * steps[:, None])
        d2 = (shifted[:, :, 2] - shifted[:, :, 3]) / steps[:, None]
        columns = ((4.0 * d2 - d1) / 3.0).transpose(0, 2, 1)
        A[start:start + k] = columns[:, :, :n_rho]
        B[start:start + k] = columns[:, :, n_rho:]
    if f0_max > 1e-9:
        raise ConditionCheckError(f"on-orbit transverse field does not vanish: {f0_max:.3e}")
    return LtvModel(taus=taus, A=A, B=B, f0_max=f0_max)


# Longest Magnus step: at 2 pi/1024 the tic-toc P(0) is 5e-9 (relative) off the
# spline's exact flow, 3e-10 at half the step, while the 512-knot spline itself
# moves P(0) by 7e-8 against a 1024-knot one.
MAGNUS_STEP = TWO_PI / 1024
MAGNUS_BLOCK = 128              # Magnus steps per batched `_expm` call
_GAUSS = math.sqrt(3.0) / 6.0   # Gauss-Legendre nodes sit at 1/2 -+ _GAUSS of a step
_TAYLOR_MAX_DEGREE = 12         # highest degree of `_expm`; above 1-norm 0.34 it halves first


def _taylor_degree(norm: float) -> int | None:
    """Smallest Taylor degree m <= _TAYLOR_MAX_DEGREE whose remainder bound at 1-norm
    `norm`, norm^(m+1)/(m+1)! / (1 - norm/(m+2)), is at most 2^-53, or None."""
    term = norm                                  # norm^(m+1)/(m+1)! for m = 0
    for m in range(1, _TAYLOR_MAX_DEGREE + 1):
        term *= norm / (m + 1)
        if norm < m + 2 and term <= 2.0 ** -53 * (1.0 - norm / (m + 2)):
            return m
    return None


def _expm(a: Array) -> Array:
    """exp of every matrix of a (k, d, d) stack by one truncated Taylor series.

    One 1-norm bounds the whole stack and fixes the degree by `_taylor_degree`;
    where no degree is accurate the stack is halved s times and the result
    squared s times. The polynomial runs as batched Horner matmuls, so a stack
    costs a few matmuls instead of one scaling-and-squaring per matrix (Moler &
    Van Loan, SIAM Rev. 2003).
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise ConvergenceError("matrix exponential of a non-finite exponent")
    s = 0
    while (m := _taylor_degree(math.ldexp(norm, -s))) is None:
        s += 1
    a = a * math.ldexp(1.0, -s)
    eye = np.eye(a.shape[-1])
    r = eye + a / m
    for j in range(m - 1, 0, -1):
        r = eye + (a @ r) / j
    for _ in range(s):
        r = r @ r
    return r


def _ordered_product(maps: Array) -> Array:
    """maps[..., n-1, :, :] @ ... @ maps[..., 0, :, :] by pairwise batched matmuls."""
    while (k := maps.shape[-3]) > 1:
        pairs = maps[..., 1::2, :, :] @ maps[..., 0:k - k % 2:2, :, :]
        maps = np.concatenate([pairs, maps[..., -1:, :, :]], axis=-3) if k % 2 else pairs
    return maps[..., 0, :, :]


def _interval_maps(coefficient: Callable[[Array], Array], t0: float, n_intervals: int) -> Array:
    """Transition maps of Phi' = M(s) Phi across n equal intervals of one period from t0.

    `coefficient` gives M at an array of phases. An interval takes the fewest
    equal steps h <= MAGNUS_STEP, each the fourth-order Magnus map
    exp(h/2 (M1 + M2) + sqrt(3)/12 h^2 [M2, M1]) of M at the step's Gauss
    points (Blanes, Casas, Oteo & Ros, Phys. Rep. 2009). The exponents of
    MAGNUS_BLOCK steps go through one batched Taylor exponential `_expm`.
    """
    sub = math.ceil(round(TWO_PI / (n_intervals * MAGNUS_STEP), 9))
    h = TWO_PI / (n_intervals * sub)
    per_block = max(1, MAGNUS_BLOCK // sub)
    maps = []
    for start in range(0, n_intervals, per_block):
        k = min(per_block, n_intervals - start)
        mid = t0 + h * (start * sub + np.arange(k * sub) + 0.5)
        M1, M2 = coefficient(mid - _GAUSS * h), coefficient(mid + _GAUSS * h)
        omega = 0.5 * h * (M1 + M2) + 0.5 * _GAUSS * h * h * (M2 @ M1 - M1 @ M2)
        maps.append(_ordered_product(_expm(omega).reshape(k, sub, *omega.shape[1:])))
    maps = np.concatenate(maps)
    if not np.all(np.isfinite(maps)):
        raise ConvergenceError("interval maps of the periodic linear system are not finite")
    return maps


def gramian(model: LtvModel) -> Array:
    """Controllability Gramian over one period, anchored at phase 0.

    W = integral of Phi(0,s) B B^T Phi(0,s)^T ds over [0, 2 pi] is M X^T at 2 pi for
    [X M]' = [X M] [[-A, B B^T], [0, A^T]], X(0) = I, M(0) = 0: one period map of
    the transposed block system (Van Loan, IEEE TAC 1978).
    """
    n = model.A.shape[1]

    def coefficient(s):
        A, B = model.a_of(s), model.b_of(s)
        return np.block([[-A.swapaxes(1, 2), np.zeros_like(A)], [B @ B.swapaxes(1, 2), A]])

    F = _ordered_product(_interval_maps(coefficient, 0.0, model.taus.size))
    W = F[n:, :n].T @ F[:n, :n]
    return 0.5 * (W + W.T)


@dataclass
class GainSchedule:
    """Periodic feedback u = u*(tau) + K(tau) rho with K = -R^{-1} B^T P.

    `multipliers` are the closed-loop Floquet multipliers the Riccati solve
    predicts: the eigenvalues of the stable block of the Hamiltonian period map.
    """

    taus: Array
    K: Array
    P: Array
    sweeps: int
    fixed_point_gap: float
    multipliers: Array
    k_of: PeriodicMatrixSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.k_of = PeriodicMatrixSpline(self.taus, self.K)


# A backward sweep has reached the periodic solution when max|P(0) - P(2 pi)| is
# below this fraction of max|P(0)| (about 500 on the family orbit, 20 on the tic-toc).
RICCATI_GAP_RTOL = 1e-8


def periodic_lqr(model: LtvModel, Q: Array | None = None, R: Array | None = None,
                 max_sweeps: int = 50) -> GainSchedule:
    """Periodic LQR from the stable subspace of the Hamiltonian period map.

    The period map of z' = [[A, -B R^{-1} B^T], [-Q, -A^T]] z from the first
    node has n eigenvalues inside the unit circle when (A, B) is stabilizable;
    the ordered real Schur form gives their subspace [X; Y], and P = Y X^{-1}
    (Bittanti, Colaneri & De Nicolao 1991). A sweep carries the graph P
    backward through the inverted interval maps, where it attracts:
    [X; Y] = map^{-1} [I; P(next node)] gives P at each node of the uniform
    grid. At most `max_sweeps` sweeps run until P(0) comes back within
    RICCATI_GAP_RTOL. R must be symmetric positive definite.
    """
    n, m = model.B.shape[1:]
    Q = np.eye(n) if Q is None else np.asarray(Q, dtype=float)
    R = np.eye(m) if R is None else np.asarray(R, dtype=float)
    if R.shape != (m, m) or not (np.array_equal(R, R.T) and np.all(np.linalg.eigvalsh(R) > 0.0)):
        raise DomainError(f"R must be a symmetric positive definite {m}x{m} matrix")
    Rinv = np.linalg.inv(R)
    taus = model.taus

    def hamiltonian(s):
        A, B = model.a_of(s), model.b_of(s)
        return np.block([[A, -B @ Rinv @ B.swapaxes(1, 2)],
                         [np.broadcast_to(-Q, A.shape), -A.swapaxes(1, 2)]])

    maps = _interval_maps(hamiltonian, float(taus[0]), taus.size)
    T, Z, n_stable = schur(_ordered_product(maps), output="real", sort="iuc")
    if n_stable != n:
        raise ConvergenceError(f"Hamiltonian period map has {n_stable} stable multipliers, "
                               f"not {n}: (A, B) is not stabilizable or (Q, A) not detectable")
    cond = np.linalg.cond(Z[:n, :n])
    if not cond <= 1e12:
        raise ConvergenceError(f"stable subspace of the Hamiltonian period map is not a graph "
                               f"over the state (cond X = {cond:.3e})")
    try:
        back = np.linalg.inv(maps)      # node i+1 -> node i
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("an interval map of the Hamiltonian system is singular") from exc
    back_x, back_y = back[:, :, :n], back[:, :, n:]
    P_end = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T)
    P_end, gap = 0.5 * (P_end + P_end.T), math.inf
    for sweep in range(1, max_sweeps + 1):
        P, P_next = np.empty((taus.size, n, n)), P_end
        try:
            for i in reversed(range(taus.size)):
                V = back_x[i] + back_y[i] @ P_next
                # X^{-T} Y^T = (Y X^{-1})^T, which is P: the graph is symmetric.
                P_next = P[i] = np.linalg.solve(V[:n].T, V[n:].T)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Riccati sweep meets a singular X at tau = {taus[i]:.6f}") \
                from exc
        bad = np.flatnonzero(~np.isfinite(P).all(axis=(1, 2)))
        if bad.size:    # the backward walk left the finite numbers at the last bad node
            raise ConvergenceError(f"Riccati graph P is not finite at tau = {taus[bad[-1]]:.6f}")
        P = 0.5 * (P + P.swapaxes(1, 2))
        gap = float(np.max(np.abs(P[0] - P_end)) / np.max(np.abs(P[0])))
        if gap < RICCATI_GAP_RTOL:
            K = -Rinv @ model.B.transpose(0, 2, 1) @ P
            return GainSchedule(taus=taus, K=K, P=P, sweeps=sweep, fixed_point_gap=gap,
                                multipliers=np.linalg.eigvals(T[:n, :n]))
        P_end = P[0]
    raise ConvergenceError(f"periodic Riccati did not reach a fixed point in {max_sweeps} sweeps "
                           f"(relative gap {gap:.3e})")


def monodromy(model: LtvModel, gains: GainSchedule | None = None, t0: float = 0.0):
    """Period map of the (closed-loop) transverse linearization from phase t0.

    Returns (F, eigenvalues); gains=None gives the open-loop map.
    """

    def closed_loop(s):
        A = model.a_of(s)
        return A if gains is None else A + model.b_of(s) @ gains.k_of(s)

    F = _ordered_product(_interval_maps(closed_loop, t0, model.taus.size))
    return F, np.linalg.eigvals(F)
