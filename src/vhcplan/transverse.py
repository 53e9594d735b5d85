"""Transverse coordinates around a periodic orbit and orbital stabilization.

A moving chart splits the phase space near the orbit into a scalar phase tau
on [-pi, pi) and 2n - 1 transverse coordinates rho (five for a 3-DOF model)
that vanish exactly on the orbit (Shiriaev, Freidovich & Gusev, IEEE TAC
2010). One recipe, `FamilyChart`, charts any orbit that rides a constraint
q = phi(theta) whose theta reads back affinely from one coordinate: tau is
the angle of the scaled reduced phase point (theta, thetadot), and rho holds
the constraint errors of the other coordinates, their rates and the radial
deviation from the orbit. `TicTocChart` is its closed-form instance on the
tic-toc orbit, which is the unit circle in that plane.

Differentiating rho along the dynamics and dividing by taudot yields
drho/dtau = f(rho, tau, w) with input deviation w = u - u*(tau); finite
differences of f give the periodic pair A(tau), B(tau) used for the
controllability Gramian, the periodic LQR gain schedule and the monodromy
(period map) spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditionCheckError, ConvergenceError, DomainError, OutsideTubeError
from .mech import MechanicalSystem, eval_accel, tic_toc_input
from .numdiff import (PeriodicPiecewisePolynomial, central_derivative, cubic_coefficients,
                      matvec, point_or_batch)
from .singular_solver import PeriodicTrajectory
from .vhc import tic_toc_vhc

Array = np.ndarray

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Map an angle, or each entry of an array of angles, to [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


class PeriodicMatrixSpline(PeriodicPiecewisePolynomial):
    """Periodic cubic spline of array-valued samples on n uniform knots over one period.

    taus[i] = taus[0] + 2 pi i / n, and values[i] is the sample at taus[i].
    On uniform knots the slope equations s[i-1] + 4 s[i] + s[i+1] =
    3 (y[i+1] - y[i-1]) / h form a circulant system, which one real FFT
    solves for every entry at once: the circulant's eigenvalues are
    4 + 2 cos(2 pi k / n), all at least 2. `numdiff.cubic_coefficients`
    turns values and slopes into the cubics that the parent class evaluates,
    for one tau or an array of them. Values agree with scipy's periodic
    `CubicSpline` to rounding (tests bound the gap by 1e-13 of max|y|).
    Raises ValueError for taus that are not such a grid or a non-finite sample.
    """

    def __init__(self, taus: Array, values: Array):
        taus, y = np.asarray(taus, dtype=float), np.asarray(values, dtype=float)
        n = len(taus)
        h = TWO_PI / n
        if np.abs(taus - (taus[0] + h * np.arange(n))).max() > 1e-12 * max(1.0, abs(taus[0])):
            raise ValueError("taus must be n uniform knots over one period 2 pi")
        if not np.all(np.isfinite(y)):
            raise ValueError("spline samples must be finite")
        eig = 4.0 + 2.0 * np.cos(TWO_PI * np.arange(n // 2 + 1) / n)
        rhs = (3.0 / h) * (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0))
        s = np.fft.irfft(np.fft.rfft(rhs, axis=0) / eig.reshape((-1,) + (1,) * (y.ndim - 1)),
                         n=n, axis=0)
        knots = np.append(taus, taus[0] + TWO_PI)
        super().__init__(knots, cubic_coefficients(knots, np.concatenate([y, y[:1]]),
                                                   np.concatenate([s, s[:1]])))


@functools.cache
def _other_coordinates(n: int, i: int) -> tuple[int, ...]:
    """0, ..., n - 1 without the read-back coordinate i."""
    return tuple(j for j in range(n) if j != i)


# Equal time intervals over one period at which `FamilyChart` samples the
# orbit for its phase-to-time interpolant.
FAMILY_CHART_SAMPLES = 8192


class FamilyChart:
    """Transverse chart of an orbit that rides a constraint q = phi(theta).

    theta = (q[i] - c)/k by the constraint's `readback`, and tau is the angle
    of (p, v) = (theta, thetadot/omega)/theta_scale, the reduced phase point
    scaled by the orbit's amplitude and angular rate. rho holds the errors
    q[j] - phi_j(theta) of the other n - 1 coordinates, their rates, and the
    radial deviation from r*(tau). r* and dr*/dtau are exact on the orbit at
    the time of the phase, which one cubic Hermite interpolant of t over the
    phase gives. Methods take one point or a batch along a leading axis; a
    point whose curve values are Python floats runs on `math` (the closed
    loop calls `forward` at every stage, with the point as two lists, and
    gets rho as a list). `invert_guess` is the exact inverse
    of `forward` inside the tube of radius `tube_radius` in rho, and
    `chart_invert` only checks its residual. Raises ConditionCheckError for a
    constraint without a read-back, or a phase that does not wind once,
    monotonically, along the orbit.
    """

    tube_radius = 1.0

    def __init__(self, traj: PeriodicTrajectory):
        if traj.vhc.readback is None:
            raise ConditionCheckError(f"constraint {traj.vhc.name!r} has no affine read-back "
                                      f"of theta (ParametricVhc.readback is None)")
        self.traj = traj
        self.vhc = traj.vhc
        scalar = traj.scalar
        self.omega = TWO_PI / scalar.period
        n = FAMILY_CHART_SAMPLES
        ts = scalar.t0 + scalar.period * np.arange(n + 1) / n
        thetas, dthetas, ddthetas = scalar.eval(ts)
        self.theta_scale = float(np.max(np.abs(thetas)))
        p, v = self._pv(thetas, dthetas)
        tau_raw = np.unwrap(np.arctan2(p, v))
        if np.any(np.diff(tau_raw) <= 0.0):
            raise ConditionCheckError("phase is not monotone along the orbit")
        if abs((tau_raw[-1] - tau_raw[0]) - TWO_PI) > 1e-6:
            raise ConditionCheckError("phase winding along the orbit is not one turn")
        # t over the unwrapped phase, with the exact slope dt/dtau = 1/taudot.
        _, taudot, _ = self._phase_rates(thetas, dthetas, ddthetas)
        self._time_of_phase = PeriodicPiecewisePolynomial(
            tau_raw, cubic_coefficients(tau_raw, ts, 1.0 / taudot))

    def _pv(self, theta, dtheta):
        return theta / self.theta_scale, dtheta / (self.omega * self.theta_scale)

    def _phase_rates(self, theta, dtheta, ddtheta):
        """Radius r in the scaled reduced plane and the rates taudot, rdot along the orbit."""
        (p, v), (pdot, vdot) = self._pv(theta, dtheta), self._pv(dtheta, ddtheta)
        r = np.hypot(p, v)
        return r, (v * pdot - p * vdot) / (r * r), (p * pdot + v * vdot) / r

    def _orbit_radial(self, tau):
        """r*(tau) and dr*/dtau on the orbit."""
        r, taudot, rdot = self._phase_rates(*self.traj.scalar.eval(self._time_of_phase(tau)))
        return r, rdot / taudot

    def _on_curve(self, theta, curve, derivative):
        """`math` for Python floats of one point, else numpy (whose arctan2 and hypot
        can differ from `math`'s in the last bit), and two curves' values by coordinate."""
        a, b = curve(theta), derivative(theta)
        if isinstance(a, tuple):
            return math, a, b
        return np, a.T, b.T

    def forward(self, q: Array, qd: Array):
        as_list = isinstance(q, list)
        _, q = point_or_batch(q)
        _, qd = point_or_batch(qd)
        i, c, k = self.vhc.readback
        th, dth = (q[i] - c) / k, qd[i] / k
        m, phi, dphi = self._on_curve(th, self.vhc.phi, self.vhc.dphi)
        p, v = self._pv(th, dth)
        tau = wrap_angle(m.atan2(p, v))
        # Loops, not comprehensions: this runs at every closed-loop stage.
        others = _other_coordinates(len(q), i)
        rho = []
        for j in others:
            rho.append(q[j] - phi[j])
        for j in others:
            rho.append(qd[j] - dphi[j] * dth)
        rho.append(m.hypot(p, v) - self._orbit_radial(tau)[0])
        return tau, rho if as_list else np.array(rho).T

    def jacobian(self, q: Array, qd: Array) -> Array:
        n = q.shape[-1]
        i, c, k = self.vhc.readback
        th, dth = (q.T[i] - c) / k, qd.T[i] / k
        p, v = self._pv(th, dth)
        D = p * p + v * v
        if np.any(D == 0.0):
            raise OutsideTubeError("chart differential undefined at the reduced-plane origin")
        r = np.sqrt(D)
        _, dr_star = self._orbit_radial(wrap_angle(np.arctan2(p, v)))
        _, dphi, ddphi = self._on_curve(th, self.vhc.dphi, self.vhc.ddphi)
        cp = 1.0 / (k * self.theta_scale)                 # dp/dq[i]
        cv = 1.0 / (k * self.omega * self.theta_scale)   # dv/dqd[i]
        J = np.zeros(np.shape(th) + (2 * n, 2 * n))
        J[..., 0, i] = (v / D) * cp
        J[..., 0, n + i] = -(p / D) * cv
        for row, j in enumerate(_other_coordinates(n, i), start=1):
            J[..., row, j] = 1.0
            J[..., row, i] = -dphi[j] / k
            J[..., row + n - 1, i] = -ddphi[j] * dth / k
            J[..., row + n - 1, n + j] = 1.0
            J[..., row + n - 1, n + i] = -dphi[j] / k
        J[..., -1, i] = (p / r) * cp - dr_star * (v / D) * cp
        J[..., -1, n + i] = (v / r) * cv + dr_star * (p / D) * cv
        return J

    def reference_input(self, tau) -> Array:
        return self.traj.full_state_at(self._time_of_phase(tau))[3]

    def invert_guess(self, tau, rho: Array):
        rho = rho.T
        n = (len(rho) + 1) // 2
        i, c, k = self.vhc.readback
        r = self._orbit_radial(tau)[0] + rho[-1]
        p, v = r * np.sin(tau), r * np.cos(tau)
        th, dth = self.theta_scale * p, self.omega * self.theta_scale * v
        _, phi, dphi = self._on_curve(th, self.vhc.phi, self.vhc.dphi)
        q, qd = [c + k * th] * n, [k * dth] * n     # slot i keeps the read-back coordinate
        for row, j in enumerate(_other_coordinates(n, i)):
            q[j] = rho[row] + phi[j]
            qd[j] = rho[n - 1 + row] + dphi[j] * dth
        return np.array(q).T, np.array(qd).T


class TicTocChart(FamilyChart):
    """The recipe's closed-form instance on the tic-toc orbit, theta = sin t.

    The reduced phase point runs on the unit circle at unit rate: theta_scale =
    omega = r* = 1, and the reference input is `tic_toc_input`.
    """

    def __init__(self):
        self.vhc = tic_toc_vhc()
        self.theta_scale = self.omega = 1.0

    def _orbit_radial(self, tau):
        return 1.0, 0.0

    def reference_input(self, tau) -> Array:
        return tic_toc_input(tau)


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

    A and B are sampled on the uniform grid `taus`; `a_of(tau)` and
    `b_of(tau)` are their two `PeriodicMatrixSpline`s.
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


def linearize(chart, sys: MechanicalSystem, traj: PeriodicTrajectory,
              n_grid: int = 512) -> LtvModel:
    """Finite-difference periodic linearization of the transverse dynamics.

    A and B are the Jacobians of f(rho, tau, w) in rho and in the input offset
    w at rho = 0, w = 0, by `central_derivative` (1 + 4 (n_rho + n_w) points
    per grid node); the stencils of LINEARIZE_BLOCK nodes go through the
    chart, the model and the chart Jacobian as one batch. The chart/trajectory
    pair is validated first (on-orbit states must map to rho ~ 0), A and B
    must be finite, and the on-orbit vector field f(0, tau, 0) must vanish to
    1e-9 at every grid node.
    """
    q, qd = traj.state_at(traj.t0 + traj.period * np.arange(8) / 8.0)
    _, rho = chart.forward(q, qd)
    if float(np.max(np.abs(rho))) > 1e-8:
        raise ConditionCheckError("chart does not vanish on the supplied trajectory")

    n_rho, n_w = 5, sys.n - 1

    def transverse_field(node_tau: Array, points: Array) -> Array:   # (nodes, n_rho, points)
        tau = np.repeat(node_tau, len(points))
        q, qd = chart_invert(chart, tau, np.tile(points[:, :n_rho], (node_tau.size, 1)))
        u = chart.reference_input(node_tau)[:, None, :] + points[:, n_rho:]
        qdd = eval_accel(sys, q, qd, u.reshape(-1, n_w))
        rates = matvec(chart.jacobian(q, qd), np.concatenate([qd, qdd], axis=1))
        taudot = rates[:, 0]
        if np.any(taudot <= 0.0):
            raise ConditionCheckError(f"phase rate is not positive at tau={tau[taudot <= 0.0][0]}")
        f = (rates[:, 1:] / taudot[:, None]).reshape(node_tau.size, len(points), n_rho)
        return f.transpose(0, 2, 1)

    taus = -math.pi + TWO_PI * np.arange(n_grid) / n_grid
    blocks = [central_derivative(functools.partial(transverse_field, taus[i:i + LINEARIZE_BLOCK]),
                                 np.zeros(n_rho + n_w)) for i in range(0, n_grid, LINEARIZE_BLOCK)]
    f0 = np.concatenate([block_f0 for block_f0, _ in blocks])
    jac = np.concatenate([block_jac for _, block_jac in blocks])
    bad = np.flatnonzero(~(np.isfinite(f0).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))))
    if bad.size:
        raise ConvergenceError(f"linearization is not finite at tau = {taus[bad[0]]:.6f}")
    f0_max = float(np.max(np.abs(f0)))
    if f0_max > 1e-9:
        raise ConditionCheckError(f"on-orbit transverse field does not vanish: {f0_max:.3e}")
    return LtvModel(taus=taus, A=jac[:, :, :n_rho], B=jac[:, :, n_rho:], f0_max=f0_max)


# Longest step of the interval maps: at 2 pi/1024 the tic-toc P(0) is 2.9e-9
# (relative) off the spline's exact flow, 1.8e-10 at half the step, while the
# 512-knot spline itself moves P(0) by 7e-8 against a 1024-knot one.
INTERVAL_STEP = TWO_PI / 1024
INTERVAL_BLOCK = 128            # steps per batched evaluation of the coefficient


def _ordered_product(maps: Array) -> Array:
    """maps[..., n-1, :, :] @ ... @ maps[..., 0, :, :] by pairwise batched matmuls."""
    while (k := maps.shape[-3]) > 1:
        pairs = maps[..., 1::2, :, :] @ maps[..., 0:k - k % 2:2, :, :]
        maps = np.concatenate([pairs, maps[..., -1:, :, :]], axis=-3) if k % 2 else pairs
    return maps[..., 0, :, :]


def _interval_maps(coefficient: Callable[[Array], Array], t0: float, n_intervals: int) -> Array:
    """Transition maps of Phi' = M(s) Phi across n equal intervals of one period from t0.

    `coefficient` gives M at an array of phases. An interval takes the fewest
    equal steps h <= INTERVAL_STEP, each the classical Runge-Kutta map of the
    linear system, I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = M0,
    K2 = Mh (I + h/2 K1), K3 = Mh (I + h/2 K2) and K4 = M1 (I + h K3) from M
    at the step's start, middle and end. M is evaluated for INTERVAL_BLOCK
    steps at a time.
    """
    sub = math.ceil(round(TWO_PI / (n_intervals * INTERVAL_STEP), 9))
    h = TWO_PI / (n_intervals * sub)
    per_block = max(1, INTERVAL_BLOCK // sub)
    maps = []
    # An overflow leaves inf or nan behind, which the finiteness gate reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_intervals, per_block):
            k = min(per_block, n_intervals - start)
            steps = start * sub + np.arange(k * sub + 1)
            M = coefficient(t0 + h * steps)
            M0, M1, Mh = M[:-1], M[1:], coefficient(t0 + h * (steps[:-1] + 0.5))
            K2 = Mh + 0.5 * h * (Mh @ M0)
            K3 = Mh + 0.5 * h * (Mh @ K2)
            K4 = M1 + h * (M1 @ K3)
            step_maps = np.eye(M.shape[-1]) + (h / 6.0) * (M0 + 2.0 * (K2 + K3) + K4)
            maps.append(_ordered_product(step_maps.reshape(k, sub, *M.shape[1:])))
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


# Newton's iteration for the matrix sign function has converged once a step
# changes the iterate by less than SIGN_TOL relative (1-norm). It takes about
# 2 more steps per decade that a multiplier's modulus comes closer to 1
# (tic-toc 4 steps, family 6): SIGN_MAX_ITER steps accept multipliers about
# 1e-5 off the unit circle and reject one that lies on it, which the interval
# maps compute within about 1e-8 of it.
SIGN_TOL = 1e-10
SIGN_MAX_ITER = 16


def _stable_subspace(F: Array) -> tuple[Array, int]:
    """Invariant subspace of F for its eigenvalues inside the unit circle.

    Returns (Z, k): the k orthonormal columns of Z span the subspace. The
    Cayley transform C = (F - I)^{-1} (F + I) sends the inside of the unit
    circle to the open left half-plane, so (I - sign(C)) / 2 projects onto
    the subspace along its complement; sign(C) comes from Newton's iteration
    with determinant scaling (Higham, Functions of Matrices, 2008, ch. 5),
    which needs no eigenvectors and so also handles defective eigenvalues.
    The projector's trace is k and its leading left singular vectors span its
    range.
    """
    eye = np.eye(len(F))
    try:
        S = np.linalg.solve(F - eye, F + eye)
        for _ in range(SIGN_MAX_ITER):
            S_inv = np.linalg.inv(S)     # raises before a singular S scales by inf
            mu = np.exp(-np.linalg.slogdet(S)[1] / len(F))
            S_next = 0.5 * (mu * S + S_inv / mu)
            change = np.abs(S_next - S).sum(axis=0).max() / np.abs(S_next).sum(axis=0).max()
            S = S_next
            if change <= SIGN_TOL:
                break
        else:
            raise ConvergenceError(f"sign iteration on the period map did not converge in "
                                   f"{SIGN_MAX_ITER} steps (last relative change {change:.3e}): "
                                   f"a multiplier lies on or near the unit circle")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("the period map has a multiplier at 1 or -1") from exc
    projector = 0.5 * (eye - S)
    k = int(round(np.trace(projector)))
    return np.linalg.svd(projector)[0][:, :k], k


def periodic_lqr(model: LtvModel, Q: Array | None = None, R: Array | None = None,
                 max_sweeps: int = 50) -> GainSchedule:
    """Periodic LQR from the stable subspace of the Hamiltonian period map.

    The period map of the Hamiltonian system with matrix
    [[A, -B R^{-1} B^T], [-Q, -A^T]] from the first node has n eigenvalues
    inside the unit circle when (A, B) is stabilizable; `_stable_subspace`
    gives their subspace [X; Y], and P = Y X^{-1} (Bittanti, Colaneri & De
    Nicolao 1991). A sweep carries the graph P backward through the inverted
    interval maps, where it attracts: [X; Y] = map^{-1} [I; P(next node)]
    gives P at each node of the uniform grid. At most `max_sweeps` sweeps run
    until P(0) comes back within RICCATI_GAP_RTOL. Q must be a finite
    symmetric matrix and R a symmetric positive definite one.
    """
    n, m = model.B.shape[1:]
    Q = np.eye(n) if Q is None else np.asarray(Q, dtype=float)
    R = np.eye(m) if R is None else np.asarray(R, dtype=float)
    if Q.shape != (n, n) or not (np.all(np.isfinite(Q)) and np.array_equal(Q, Q.T)):
        raise DomainError(f"Q must be a finite symmetric {n}x{n} matrix")
    if R.shape != (m, m) or not (np.array_equal(R, R.T) and np.all(np.linalg.eigvalsh(R) > 0.0)):
        raise DomainError(f"R must be a symmetric positive definite {m}x{m} matrix")
    Rinv = np.linalg.inv(R)
    taus = model.taus

    def hamiltonian(s):
        A, B = model.a_of(s), model.b_of(s)
        return np.block([[A, -B @ Rinv @ B.swapaxes(1, 2)],
                         [np.broadcast_to(-Q, A.shape), -A.swapaxes(1, 2)]])

    maps = _interval_maps(hamiltonian, float(taus[0]), taus.size)
    period_map = _ordered_product(maps)
    Z, n_stable = _stable_subspace(period_map)
    if n_stable != n:
        raise ConvergenceError(f"Hamiltonian period map has {n_stable} stable multipliers, "
                               f"not {n}: (A, B) is not stabilizable or (Q, A) not detectable")
    cond = np.linalg.cond(Z[:n])
    if not cond <= 1e12:
        raise ConvergenceError(f"stable subspace of the Hamiltonian period map is not a graph "
                               f"over the state (cond X = {cond:.3e})")
    try:
        back = np.linalg.inv(maps)      # node i+1 -> node i
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("an interval map of the Hamiltonian system is singular") from exc
    back_x, back_y = back[:, :, :n], back[:, :, n:]
    P_end = np.linalg.solve(Z[:n].T, Z[n:].T)
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
                                multipliers=np.linalg.eigvals(Z.T @ period_map @ Z))
        P_end = P[0]
    raise ConvergenceError(f"periodic Riccati did not reach a fixed point in {max_sweeps} sweeps "
                           f"(relative gap {gap:.3e})")


def monodromy(model: LtvModel, gains: GainSchedule | None = None, t0: float = 0.0):
    """Period map of the (closed-loop) transverse linearization from phase t0.

    Returns (F, eigenvalues); gains=None gives the open-loop map. t0 must be finite.
    """
    if not math.isfinite(t0):
        raise DomainError(f"monodromy start phase t0 must be finite, got {t0!r}")

    def closed_loop(s):
        A = model.a_of(s)
        return A if gains is None else A + model.b_of(s) @ gains.k_of(s)

    F = _ordered_product(_interval_maps(closed_loop, t0, model.taus.size))
    return F, np.linalg.eigvals(F)
