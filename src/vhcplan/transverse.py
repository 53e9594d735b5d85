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
drho/dtau = f(rho, tau, w) with input deviation w = u - u*(tau); a complex
step in rho (Squire & Trapp, SIAM Review 40, 1998) and one exact step in w
give the periodic pair A(tau), B(tau) used for the controllability Gramian,
the periodic LQR gain schedule and the monodromy (period map) spectrum.

Time reversal t -> -t, qdot -> -qdot maps a planned orbit onto itself (its
second half mirrors its first) with tau -> pi - tau and rho -> R rho, R =
diag(I, -I, 1) (`_reversal_signs`), so A(pi - tau) = -R A(tau) R and B(pi -
tau) = -R B(tau) (Lamb & Roberts, Physica D 112, 1998). The mirror rule: on
n % 4 == 0 nodes from -pi, node k mirrors node (n/2 - k) mod n and interval i
mirrors interval (n/2 - i - 1) mod n, whose map is S Phi^{-1} S of Phi, with
S = diag(R, -R), in the block systems of the period integrals. Where it
holds, `linearize` and the period integrals compute |tau| <= pi/2 only.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numdiff
from .errors import (ConditionCheckError, ConvergenceError, DomainError, ModelInvariantError,
                     OutsideTubeError)
from .mech import MechanicalSystem, eval_accel, tic_toc_input, tic_toc_input_terms
from .numdiff import (PeriodicPiecewisePolynomial, central_derivative, cubic_coefficients,
                      point_or_batch)
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
    `grid` samples the spline on a uniform grid of k points per knot interval,
    for the period integrals, and `matvec_point` multiplies the value at one
    tau into a vector on Python floats, from the parent class's list table
    `_rows` (about 1 MiB and 2 ms for the 512 pieces of a 2 x 5 gain); both
    sum a piece by Horner's rule, as `derivatives` does. Raises ValueError for
    taus that are not such a grid or a non-finite sample.
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

    def matvec_point(self, t: float, x: list[float]) -> list[float]:
        """The matrix at one time t times the vector x, as a list, in one pass: each
        entry ((a3 d + a2) d + a1) d + a0 by Horner's rule, as `derivatives` sums it,
        each row's products summed left to right from 0.0, from `_rows`."""
        # The wrap and bisect of `derivatives`, inline: a shared helper for the
        # two lines cost about 0.1 us more per `k_rho`.
        t = self._x0 + (float(t) - self._x0) % self._span
        i = min(bisect_right(self._breaks, t) - 1, self._last)
        d = t - self._breaks[i]
        out = []
        for row in self._rows[i]:
            s = 0.0
            for x_m, (a0, a1, a2, a3) in zip(x, row):
                s += (((a3 * d + a2) * d + a1) * d + a0) * x_m
            out.append(s)
        return out

    def grid(self, t0: float, k: int, start: int = 0, stop: int | None = None) -> Array:
        """Values at t0 + j 2 pi/(n k) for j = k start, ..., k stop (0, ..., n k by default).

        The grid has k points in each knot interval, at the same k offsets
        from the interval's knot, so each piece's cubic is evaluated at those
        offsets by Horner's rule: no piece search and no gather. The sample at
        j = n k is the one at j = 0, bit for bit, and a sample that two calls
        share has the same bits in both. Raises DomainError for a non-finite t0.
        """
        if not math.isfinite(t0):
            raise DomainError(f"spline grid start t0 must be finite, got {t0!r}")
        n = self._last + 1
        stop = n if stop is None else stop
        step = TWO_PI / (n * k)
        steps, offset = divmod(t0 - self._x0, step)
        first, r = divmod(int(steps) % (n * k), k)     # sample 0 is r steps into piece `first`
        # Row m of the table holds the pieces' values at offset + m step, so each
        # Horner step runs on one contiguous run of pieces with a scalar offset.
        table = np.empty((k, stop - start + 1) + self._c.shape[2:])
        # The pieces first + start, ..., first + stop wrap at most once past the last.
        lo = (first + start) % n
        hi = lo + table.shape[1]
        for a, b, row in ((lo, min(hi, n), 0), (0, hi - n, n - lo)):
            if a >= b:
                continue
            c = self._c[:, a:b]
            for m in range(k):
                d = offset + m * step
                out = table[m, row:row + b - a]
                np.multiply(c[-1], d, out=out)
                for ck in c[-2:0:-1]:
                    out += ck
                    out *= d
                out += c[0]
        samples = table.swapaxes(0, 1).reshape((-1,) + table.shape[2:])
        return samples[r:r + k * (stop - start) + 1]


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
    phase gives. Methods take one point or a batch along a leading axis; one
    point runs on `math` (the closed loop calls `forward` at every stage, with
    the point as two lists, and gets tau and rho on Python floats, rho as a
    list). `invert_guess` is the exact inverse of `forward` inside the tube of
    radius `tube_radius` in rho, and `chart_invert` only checks its residual.
    One lookup of r* serves each point: `invert_guess` looks it up once per
    distinct phase of a batch, and `forward`, given an acceleration, returns
    the rates of the motion from the same lookup (`forward_rates` is its name
    for that call). At a known phase both take complex batches. The
    interpolant samples the first half of the orbit and mirrors it (sample k
    and N - k share 1/taudot; tau goes to pi - tau). Raises
    ConditionCheckError for a constraint without a read-back, or a phase that
    does not run monotonically through half a turn, pi, on that half.
    """

    tube_radius = 1.0

    def __init__(self, traj: PeriodicTrajectory):
        if traj.vhc.readback is None:
            raise ConditionCheckError(f"constraint {traj.vhc.name!r} has no affine read-back "
                                      f"of theta (ParametricVhc.readback is None)")
        self.traj = traj
        self.vhc = traj.vhc
        # The coordinates other than the read-back one, which rho holds.
        self._others = tuple(j for j in range(traj.system.n) if j != traj.vhc.readback[0])
        scalar = traj.scalar
        self.omega = TWO_PI / scalar.period
        n = FAMILY_CHART_SAMPLES
        ts = scalar.t0 + scalar.period * np.arange(n + 1) / n
        thetas, dthetas, ddthetas = scalar.eval(ts[:n // 2 + 1])
        self.theta_scale = float(np.max(np.abs(thetas)))
        p, v = self._pv(thetas, dthetas)
        tau_raw = np.unwrap(np.arctan2(p, v))
        if np.any(np.diff(tau_raw) <= 0.0):
            raise ConditionCheckError("phase is not monotone along the orbit")
        if abs((tau_raw[-1] - tau_raw[0]) - math.pi) > 1e-6:
            raise ConditionCheckError("phase winding along the orbit is not one turn")
        # t over the unwrapped phase, with the exact slope dt/dtau = 1/taudot.
        slope = 1.0 / self._phase_rates(thetas, dthetas, ddthetas)[1]
        tau_raw = np.r_[tau_raw, 2.0 * tau_raw[-1] - tau_raw[-2::-1]]
        self._time_of_phase = PeriodicPiecewisePolynomial(
            tau_raw, cubic_coefficients(tau_raw, ts, np.r_[slope, slope[-2::-1]]))

    def _pv(self, theta, dtheta):
        return theta / self.theta_scale, dtheta / (self.omega * self.theta_scale)

    def _radius(self, m, p, v):   # m.hypot(p, v), but np.hypot rejects a complex batch
        return np.sqrt(p * p + v * v) if m is np and p.dtype.kind == "c" else m.hypot(p, v)

    def _phase_rates(self, theta, dtheta, ddtheta):
        """Radius r in the scaled reduced plane and the rates taudot, rdot along the orbit."""
        (p, v), (pdot, vdot) = self._pv(theta, dtheta), self._pv(dtheta, ddtheta)
        r = self._radius(point_or_batch(p, point_ndim=0)[0], p, v)
        return r, (v * pdot - p * vdot) / (r * r), (p * pdot + v * vdot) / r

    def _time(self, tau):
        """The orbit's time at phase tau; one float tau reads a float by `derivatives`."""
        return (self._time_of_phase.derivatives(tau, 0)[0] if isinstance(tau, float)
                else self._time_of_phase(tau))

    def _orbit_radial(self, tau):
        """r*(tau) and dr*/dtau on the orbit."""
        r, taudot, rdot = self._phase_rates(*self.traj.scalar.eval(self._time(tau)))
        return r, rdot / taudot

    def _orbit_radius(self, tau):
        """r*(tau), looked up once per distinct phase: the stencil points of a node share one."""
        taus, where = np.unique(tau, return_inverse=True)
        return self._orbit_radial(taus)[0][where]

    def forward(self, q: Array, qd: Array, qdd: Array | None = None, tau: Array | None = None):
        """tau and rho, a list for a point given as lists; with the acceleration qdd,
        also the rates (taudot, rhodot) of the motion, from the same orbit lookup.
        Known phases tau replace atan2, so a complex batch passes (`linearize`).
        Raises OutsideTubeError at the reduced-plane origin when rates are asked."""
        as_list = isinstance(q, list)
        m, q = point_or_batch(q)
        _, qd = point_or_batch(qd)
        i, c, k = self.vhc.readback
        th, dth = (q[i] - c) / k, qd[i] / k
        phi, dphi = self.vhc.phi(th), self.vhc.dphi(th)
        if m is np:     # a batch's curve values by coordinate
            phi, dphi = phi.T, dphi.T
        p, v = self._pv(th, dth)
        tau = wrap_angle(m.atan2(p, v)) if tau is None else tau
        r_star, dr_star = self._orbit_radial(tau)
        # Loops, not comprehensions, and math.hypot inline: this runs at every closed-loop stage.
        rho = []
        for j in self._others:
            rho.append(q[j] - phi[j])
        for j in self._others:
            rho.append(qd[j] - dphi[j] * dth)
        rho.append((m.hypot(p, v) if m is math else self._radius(m, p, v)) - r_star)
        if qdd is None:
            return tau, rho if as_list else np.array(rho).T
        if np.any(p * p + v * v == 0.0):
            raise OutsideTubeError("phase rate undefined at the reduced-plane origin")
        _, qdd = point_or_batch(qdd)
        ddth = qdd[i] / k
        _, taudot, rdot = self._phase_rates(th, dth, ddth)
        ddphi = self.vhc.ddphi(th) if m is math else self.vhc.ddphi(th).T
        rates = ([taudot, *rho[len(self._others):-1]]
                 + [qdd[j] - ddphi[j] * dth * dth - dphi[j] * ddth for j in self._others]
                 + [rdot - dr_star * taudot])
        return (tau, rho, rates) if as_list else (tau, np.array(rho).T, np.array(rates).T)

    # The name callers give a call with qdd: a proxy that wraps the two-argument
    # `forward` (the benchmark's call counter) leaves it alone.
    forward_rates = forward

    def reference_input(self, tau) -> Array:
        """u*(tau), a list at one float tau (the closed loop's stages pass one)."""
        u = self.traj.full_state_at(self._time(tau))[3]
        return u.tolist() if isinstance(tau, float) else u

    def invert_guess(self, tau, rho: Array):
        rho = rho.T
        n = (len(rho) + 1) // 2
        i, c, k = self.vhc.readback
        r = self._orbit_radius(tau) + rho[-1]
        p, v = r * np.sin(tau), r * np.cos(tau)
        th, dth = self.theta_scale * p, self.omega * self.theta_scale * v
        phi, dphi = np.transpose(self.vhc.phi(th)), np.transpose(self.vhc.dphi(th))
        q, qd = [c + k * th] * n, [k * dth] * n     # slot i keeps the read-back coordinate
        for row, j in enumerate(self._others):
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
        self._others = (1, 2)   # z and psi: x reads back theta

    def _orbit_radial(self, tau):
        return 1.0, 0.0

    def _orbit_radius(self, tau):
        return 1.0

    def reference_input(self, tau) -> Array:
        return tic_toc_input_terms(math, tau) if isinstance(tau, float) else tic_toc_input(tau)


# Largest forward-map residual that `chart_invert` accepts.
CHART_INVERT_TOL = 1e-12


def chart_invert(chart, tau, rho: Array, accel: Callable[[Array, Array], Array] | None = None):
    """Phase-space point with the given chart coordinates.

    Takes a scalar tau with rho of shape (5,), or a batch: rho of shape
    (k, 5) with tau of shape (k,) or one tau for all. The point is the
    chart's exact inverse `invert_guess`, checked by one forward map. Given
    `accel(q, qd) -> q''`, that map is `forward_rates` with this acceleration,
    and its rates come back after (q, qd). Raises DomainError if any tau is not
    finite, and OutsideTubeError if any rho leaves the tube or any point's
    forward-map residual is not below CHART_INVERT_TOL.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.linalg.norm(rho, axis=-1) > chart.tube_radius):
        raise OutsideTubeError(f"requested rho leaves the chart tube (radius {chart.tube_radius})")
    if not np.all(np.isfinite(tau)):
        raise DomainError(f"chart phase tau must be finite, got {tau!r}")
    tau = wrap_angle(np.broadcast_to(np.asarray(tau, dtype=float), rho.shape[:-1]))
    q, qd = chart.invert_guess(tau, rho)
    tau_b, rho_b, *more = (chart.forward(q, qd) if accel is None
                           else chart.forward_rates(q, qd, accel(q, qd)))
    residual = max(float(np.max(np.abs(wrap_angle(tau_b - tau)))),
                   float(np.max(np.abs(rho_b - rho))))
    if not residual < CHART_INVERT_TOL:
        raise OutsideTubeError(f"chart inverse misses its coordinates by {residual:.3e} "
                               f"(tolerance {CHART_INVERT_TOL:.1e})")
    return (q, qd, *more)


@dataclass
class LtvModel:
    """Periodic linearization drho/dtau = A(tau) rho + B(tau) w on [-pi, pi).

    A and B are sampled on the uniform grid `taus`; `a_of(tau)` and `b_of(tau)`
    are their two `PeriodicMatrixSpline`s. `a_grid` and `b_grid` are the
    splines' `grid` samplers, which the period integrals read. They are fields
    of their own, bound once, so that a copy whose `a_of` or `b_of` is replaced
    by a plain function of one argument (a counting wrapper, say) still runs the
    period integrals. `reversal_gap` and `derivative_gap` check `linearize`'s
    mirror fill and complex step, None where it made no such check.
    """

    taus: Array
    A: Array
    B: Array
    f0_max: float
    reversal_gap: float | None = None
    derivative_gap: float | None = None
    a_of: PeriodicMatrixSpline = field(init=False, repr=False)
    b_of: PeriodicMatrixSpline = field(init=False, repr=False)
    a_grid: Callable[..., Array] = field(init=False, repr=False)
    b_grid: Callable[..., Array] = field(init=False, repr=False)

    def __post_init__(self):
        self.a_of = PeriodicMatrixSpline(self.taus, self.A)
        self.b_of = PeriodicMatrixSpline(self.taus, self.B)
        self.a_grid, self.b_grid = self.a_of.grid, self.b_of.grid


def _check_count(name: str, value) -> None:
    """Raise DomainError unless value is a positive integer (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


# Largest gap of `linearize`'s mirror fill from nodes computed in full, relative
# to max|A| and max|B| (9e-11 on the atlas orbits, 5e-12 on the tic-toc).
REVERSAL_TOL = 1e-8
# Gate of `linearize`'s derivative_gap, relative to max|A| (1e-10 on the atlas orbits).
DERIVATIVE_TOL = 1e-8
COMPLEX_STEP = 1e-30   # the imaginary rho step s of `linearize`'s A


def _reversal_signs(n_rho: int) -> Array:
    """Diagonal of R: reversal flips the rates in rho, not the errors or the radius."""
    return np.r_[np.ones(n_rho // 2), -np.ones(n_rho // 2), 1.0]


def linearize(chart, sys: MechanicalSystem, traj: PeriodicTrajectory,
              n_grid: int = 512) -> LtvModel:
    """Periodic linearization of the transverse dynamics.

    A and B are the Jacobians of f(rho, tau, w) = rhodot/taudot in rho and in
    the input offset w at rho = 0, w = 0. At rho = 0 the state does not depend
    on w and taudot, rhodot are affine in u, so B_j = (f(h e_j) - f(0))/h
    taudot(h e_j)/taudot(0) is exact for any step h (`numdiff.DIFF_STEP`), from
    1 + n_w points a node through `chart_invert`. A_j = Im f(i s e_j)/s, from
    n_rho complex points a node through `invert_guess`, `accel` and
    `forward_rates` at the node's tau (a ComplexWarning raises
    ModelInvariantError); a model without `accel` takes A by
    `central_derivative`. n_grid must be a positive integer. The chart must
    vanish on the trajectory, A and B must be finite, and f(0, tau, 0) must
    vanish to 1e-9 at every node computed. On a grid of 4k nodes those with
    |tau| > pi/2 are filled by the mirror rule (module notes) and those at
    +-pi/2 keep their symmetric part, so A and B are mirror images bit for bit.
    Four filled nodes computed in full give `reversal_gap`, and their A by
    `central_derivative` `derivative_gap`; ConditionCheckError above its *_TOL.
    """
    _check_count("n_grid", n_grid)
    q, qd = traj.state_at(traj.t0 + traj.period * np.arange(8) / 8.0)
    _, rho = chart.forward(q, qd)
    if float(np.max(np.abs(rho))) > 1e-8:
        raise ConditionCheckError("chart does not vanish on the supplied trajectory")

    n_rho, n_w = 2 * sys.n - 1, sys.n - 1
    h = numdiff.DIFF_STEP
    steps = np.c_[np.zeros((n_w, n_rho)), h * np.eye(n_w)]   # the input points h e_j

    # f at the rho points around each node, shape (nodes, n_rho, points), and B
    # from the input points h e_j, which join the batch.
    def transverse_field(nodes, rho_points: Array) -> tuple[Array, Array]:
        points = np.r_[np.c_[rho_points, np.zeros((len(rho_points), n_w))], steps]
        tau = np.repeat(node_taus[nodes], len(points))
        u = (u_star[nodes, None, :] + points[:, n_rho:]).reshape(-1, n_w)
        rho = np.tile(points[:, :n_rho], (tau.size // len(points), 1))
        *_, rates = chart_invert(chart, tau, rho, lambda q, qd: eval_accel(sys, q, qd, u))
        taudot = rates[:, 0]
        if np.any(taudot <= 0.0):
            raise ConditionCheckError(f"phase rate is not positive at tau={tau[taudot <= 0.0][0]}")
        rates = rates.reshape(-1, len(points), n_rho + 1).transpose(0, 2, 1)
        taudot, f = rates[:, :1], rates[:, 1:] / rates[:, :1]
        B = (f[..., -n_w:] - f[..., :1]) / h * taudot[..., -n_w:] / taudot[..., :1]
        return f[..., :-n_w], B

    def differences(nodes):   # A by `central_derivative` at those nodes
        return central_derivative(lambda x: transverse_field(nodes, x)[0], np.zeros(n_rho))[1]

    def complex_step():   # A_j = Im f(i s e_j)/s at every node
        tau, rho = np.repeat(node_taus, n_rho), np.tile(np.eye(n_rho), (todo.size, 1))
        try:   # a NaN warns in the complex division; the finite check below names it
            with warnings.catch_warnings(), np.errstate(invalid="ignore"):
                warnings.simplefilter("error", np.exceptions.ComplexWarning)
                q, qd = chart.invert_guess(tau, 1j * COMPLEX_STEP * rho)
                qdd = sys.accel(q, qd, np.repeat(u_star, n_rho, 0))
                rates = chart.forward_rates(q, qd, qdd, tau)[2]
                f = rates[:, 1:] / rates[:, :1]
        except np.exceptions.ComplexWarning as exc:
            raise ModelInvariantError(f"the complex step lost its imaginary part: {exc}") from exc
        return (f.imag / COMPLEX_STEP).reshape(todo.size, n_rho, n_rho).transpose(0, 2, 1)

    taus = -math.pi + TWO_PI * np.arange(n_grid) / n_grid
    quarter = n_grid // 4 if n_grid % 4 == 0 else 0
    rest = np.r_[n_grid - quarter + 1:n_grid, :quarter]   # the nodes the mirror fills
    controls = rest[::max(1, rest.size // 4)][:4]
    todo = np.sort(np.r_[np.delete(np.arange(n_grid), rest), controls])
    node_taus = taus[todo]
    u_star = chart.reference_input(node_taus)
    f0, B = transverse_field(slice(None), np.zeros((1, n_rho)))   # f(0) and B at every node
    A = differences(slice(None)) if sys.accel is None else complex_step()
    jac = np.concatenate([A, B], axis=-1)
    bad = np.flatnonzero(~np.isfinite(np.concatenate([f0, jac], axis=-1)).all(axis=(1, 2)))
    if bad.size:
        raise ConvergenceError(f"linearization is not finite at tau = {node_taus[bad[0]]:.6f}")
    f0_max = float(np.max(np.abs(f0)))
    if f0_max > 1e-9:
        raise ConditionCheckError(f"on-orbit transverse field does not vanish: {f0_max:.3e}")
    J, gap, dgap = np.empty((n_grid, n_rho, n_rho + n_w)), None, None
    if quarter and sys.accel is not None:
        fd = differences(at := np.searchsorted(todo, controls))
        dgap = float(np.abs(A[at] - fd).max() / np.abs(fd).max())
        if not dgap <= DERIVATIVE_TOL:
            raise ConditionCheckError(f"derivative_gap {dgap:.3e} exceeds {DERIVATIVE_TOL:.0e}")
    J[todo] = jac
    if quarter:
        rev = _reversal_signs(n_rho)
        flip = -rev[:, None] * np.r_[rev, np.ones(n_w)]     # -R A R beside -R B
        ends = [quarter, n_grid - quarter]
        full = J[np.r_[ends, controls]]
        J[ends] *= flip > 0.0
        J[rest] = flip * J[(n_grid // 2 - rest) % n_grid]
        J += 0.0   # the fill leaves -0.0 (a zero times -1, or a negative entry times 0): +0.0
        miss = np.abs(full - J[np.r_[ends, controls]])
        gap = max(float(miss[..., :n_rho].max() / np.abs(J[..., :n_rho]).max()),
                  float(miss[..., n_rho:].max() / np.abs(J[..., n_rho:]).max()))
        if not gap <= REVERSAL_TOL:
            raise ConditionCheckError(f"reversal_gap {gap:.3e} exceeds {REVERSAL_TOL:.0e}: A and B "
                                      f"are not mirror images under tau -> pi - tau")
    return LtvModel(taus=taus, A=J[..., :n_rho], B=J[..., n_rho:], f0_max=f0_max,
                    reversal_gap=gap, derivative_gap=dgap)


# Longest step of the interval maps: at 2 pi/1024 the tic-toc P(0) is 2.9e-9
# (relative) off the spline's exact flow, 1.8e-10 at half the step, while the
# 512-knot spline itself moves P(0) by 7e-8 against a 1024-knot one.
INTERVAL_STEP = TWO_PI / 1024
# Steps whose coefficient samples and Runge-Kutta maps one pass of the
# interval maps holds. It bounds their working memory only: the maps do not
# depend on it, bit for bit. At 256 the family `periodic_lqr` peaked at
# 1.57 MiB (tracemalloc), against 1.04 MiB at 128.
INTERVAL_BLOCK = 128


def _ordered_product(maps: Array) -> Array:
    """maps[..., n-1, :, :] @ ... @ maps[..., 0, :, :] by pairwise batched matmuls."""
    while (k := maps.shape[-3]) > 1:
        pairs = maps[..., 1::2, :, :] @ maps[..., 0:k - k % 2:2, :, :]
        maps = np.concatenate([pairs, maps[..., -1:, :, :]], axis=-3) if k % 2 else pairs
    return maps[..., 0, :, :]


def _runge_kutta_maps(M: Array, h: float, sub: int) -> Array:
    """Maps across intervals of `sub` Runge-Kutta steps of h, from M at the steps'
    starts, middles and ends (M[0], M[1], M[2], ... on the half-step grid)."""
    M0, Mh, M1 = M[:-1:2], M[1::2], M[2::2]
    K2 = Mh @ M0
    K2 *= 0.5 * h
    K2 += Mh
    K3 = Mh @ K2
    K3 *= 0.5 * h
    K3 += Mh
    K4 = M1 @ K3
    K4 *= h
    K4 += M1
    # The step maps I + h/6 (M0 + 2 (K2 + K3) + K4), in K2's buffer.
    K2 += K3
    K2 *= 2.0
    K2 += M0
    K2 += K4
    K2 *= h / 6.0
    K2.reshape(len(K2), -1)[:, ::M.shape[-1] + 1] += 1.0
    return _ordered_product(K2.reshape(-1, sub, *M.shape[1:]))


def _interval_maps(samplers, assemble: Callable[..., Array], t0: float, n_intervals: int,
                   start: int = 0, stop: int | None = None, out: Array | None = None) -> Array:
    """Transition maps of Phi' = M(s) Phi across the n knot intervals of one period from t0,
    or across intervals start, ..., stop - 1 of them (a negative start counts back from
    t0), into `out` if given.

    `samplers` are the `grid` samplers of splines on n knots, and
    `assemble(*values)` fills M at a batch of phases from the splines' values
    there, by slice assignment. An interval takes the fewest equal steps
    h <= INTERVAL_STEP, each the classical Runge-Kutta map of the linear
    system, I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = M0, K2 = Mh (I + h/2 K1),
    K3 = Mh (I + h/2 K2) and K4 = M1 (I + h K3) from M at the step's start,
    middle and end. Each spline is sampled once on the half-step grid
    t0 + j h/2, INTERVAL_BLOCK steps at a time; the Runge-Kutta arithmetic
    runs in place, and the maps land in one array.
    """
    sub = math.ceil(round(TWO_PI / (n_intervals * INTERVAL_STEP), 9))
    h = TWO_PI / (n_intervals * sub)
    per_block = max(1, INTERVAL_BLOCK // sub)
    stop = n_intervals if stop is None else stop
    maps = out
    # An overflow leaves inf or nan behind, which the finiteness gate reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(start, stop, per_block):
            last = min(first + per_block, stop)
            # A helper, so the block's working arrays go before the next block's come.
            block = _runge_kutta_maps(
                assemble(*(sample(t0, 2 * sub, first, last) for sample in samplers)), h, sub)
            if maps is None:
                maps = np.empty((stop - start,) + block.shape[1:])
            maps[first - start:last - start] = block
    if not np.all(np.isfinite(maps)):
        raise ConvergenceError("interval maps of the periodic linear system are not finite")
    return maps


def _mirror_signs(model: LtvModel, Q: Array | None = None) -> Array | None:
    """Diagonal of S = diag(R, -R) if the model's samples obey the mirror rule (module
    notes) exactly, on n % 4 == 0 nodes from -pi, and R Q R = Q for a given Q; else None."""
    n, rev = model.taus.size, _reversal_signs(model.A.shape[1])
    k = (n // 2 - np.arange(n)) % n
    if (n % 4 == 0 and model.taus[0] == -math.pi
            and np.array_equal(model.A[k], -np.outer(rev, rev) * model.A)
            and np.array_equal(model.B[k], -rev[:, None] * model.B)
            and (Q is None or np.array_equal(np.outer(rev, rev) * Q, Q))):
        return np.r_[rev, -rev]
    return None


def gramian(model: LtvModel) -> Array:
    """Controllability Gramian over one period, anchored at phase 0.

    W = integral of Phi(0,s) B B^T Phi(0,s)^T ds over [0, 2 pi] is M X^T at 2 pi for
    [X M]' = [X M] [[-A, B B^T], [0, A^T]], X(0) = I, M(0) = 0: one period map of
    the transposed block system (Van Loan, IEEE TAC 1978). A mirror-symmetric
    model (`_mirror_signs`) integrates G_a from -pi/2 to 0 and G_b from 0 to
    pi/2 only: F = G_a S (G_b G_a)^{-1} S G_b. Others take the whole period.
    """
    n = model.A.shape[1]

    def van_loan(A, B):
        M = np.zeros((len(A), 2 * n, 2 * n))
        M[:, :n, :n] = -A.swapaxes(1, 2)
        M[:, n:, :n] = B @ B.swapaxes(1, 2)
        M[:, n:, n:] = A
        return M

    signs, n_int = _mirror_signs(model), model.taus.size
    q = 0 if signs is None else n_int // 4
    maps = _interval_maps((model.a_grid, model.b_grid), van_loan, 0.0, n_int, -q, q or None)
    if signs is None:
        F = _ordered_product(maps)
    else:
        G_a, G_b = _ordered_product(maps[:q]), _ordered_product(maps[q:])
        F = G_a @ (np.linalg.inv(G_b @ G_a) * np.outer(signs, signs)) @ G_b
    W = F[n:, :n].T @ F[:n, :n]
    return 0.5 * (W + W.T)


@dataclass
class GainSchedule:
    """Periodic feedback u = u*(tau) + K(tau) rho with K = -R^{-1} B^T P.

    `multipliers` are the closed-loop Floquet multipliers the Riccati solve
    predicts: the eigenvalues of the stable block of the Hamiltonian period map.
    `k_of` gives K at a phase or an array of phases; `k_rho(tau, rho)` is its
    `matvec_point`, K(tau) rho at one phase on Python floats, which the
    closed-loop stage reads, and `k_grid` is its `grid` sampler, which the
    closed-loop monodromy reads. They are fields of their own, bound once, so
    that a copy whose `k_of` is replaced by a plain function of one argument
    (a counting wrapper, say) still runs the closed loop and the monodromy.
    """

    taus: Array
    K: Array
    P: Array
    sweeps: int
    fixed_point_gap: float
    multipliers: Array
    k_of: PeriodicMatrixSpline = field(init=False, repr=False)
    k_rho: Callable[[float, list], list] = field(init=False, repr=False)
    k_grid: Callable[..., Array] = field(init=False, repr=False)

    def __post_init__(self):
        self.k_of = PeriodicMatrixSpline(self.taus, self.K)
        self.k_rho, self.k_grid = self.k_of.matvec_point, self.k_of.grid


# A backward sweep has reached the periodic solution when max|P(0) - P(2 pi)| is
# below this fraction of max|P(0)| (about 500 on the family orbit, 20 on the tic-toc).
RICCATI_GAP_RTOL = 1e-8
# Grid nodes whose graph P one batched solve gives in `periodic_lqr`.
RICCATI_BLOCK = 64


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


def _period_and_inverses(samplers, assemble: Callable[..., Array], t0: float, maps: Array,
                         signs: Array | None) -> tuple[Array, Array]:
    """The period map from the first node t0 and the inverted interval maps (node i+1 ->
    node i), in the empty buffer `maps`. Given S's `signs`, only intervals n/4 to 3n/4 - 1
    are integrated and inverted, and the mirror rule fills the rest in place."""
    n_intervals = len(maps)
    lo = 0 if signs is None else n_intervals // 4
    hi, half = n_intervals - lo, n_intervals // 2
    _interval_maps(samplers, assemble, t0, n_intervals, lo, hi, out=maps[lo:hi])
    back = np.empty_like(maps)
    try:
        back[lo:hi] = np.linalg.inv(maps[lo:hi])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("an interval map of the Hamiltonian system is singular") from exc
    if lo:
        flip = np.outer(signs, signs)
        for dst, src in ((maps, back), (back, maps)):   # lo..half-1 mirror lo-1..0, and so on
            np.multiply(src[lo:half][::-1], flip, out=dst[:lo])
            np.multiply(src[half:hi][::-1], flip, out=dst[hi:])
    return _ordered_product(maps), back


def periodic_lqr(model: LtvModel, Q: Array | None = None, R: Array | None = None,
                 max_sweeps: int = 50) -> GainSchedule:
    """Periodic LQR from the stable subspace of the Hamiltonian period map.

    The period map of the Hamiltonian system with matrix
    [[A, -B R^{-1} B^T], [-Q, -A^T]] from the first node has n eigenvalues
    inside the unit circle when (A, B) is stabilizable; `_stable_subspace`
    gives their subspace [X; Y], and P = Y X^{-1} (Bittanti, Colaneri & De
    Nicolao 1991). A sweep carries the graph P backward through the inverted
    interval maps, where it attracts: [X; Y] = map^{-1} [I; P(next node)]
    gives P at each node of the uniform grid, one batched solve for each
    block of RICCATI_BLOCK nodes from the end of the period. At most
    `max_sweeps` (a positive integer) sweeps run until P(0) comes back within
    RICCATI_GAP_RTOL. Q must be a finite symmetric matrix and R a symmetric
    positive definite one. A mirror-symmetric model whose Q commutes with the
    reversal's R (`_mirror_signs`) integrates only |tau| <= pi/2; others all.
    """
    _check_count("max_sweeps", max_sweeps)
    n, m = model.B.shape[1:]
    Q = np.eye(n) if Q is None else np.asarray(Q, dtype=float)
    R = np.eye(m) if R is None else np.asarray(R, dtype=float)
    if Q.shape != (n, n) or not (np.all(np.isfinite(Q)) and np.array_equal(Q, Q.T)):
        raise DomainError(f"Q must be a finite symmetric {n}x{n} matrix")
    if R.shape != (m, m) or not (np.array_equal(R, R.T) and np.all(np.linalg.eigvalsh(R) > 0.0)):
        raise DomainError(f"R must be a symmetric positive definite {m}x{m} matrix")
    Rinv = np.linalg.inv(R)
    taus = model.taus

    def hamiltonian(A, B):
        M = np.empty((len(A), 2 * n, 2 * n))
        M[:, :n, :n] = A
        M[:, :n, n:] = -B @ Rinv @ B.swapaxes(1, 2)
        M[:, n:, :n] = -Q
        M[:, n:, n:] = -A.swapaxes(1, 2)
        return M

    period_map, back = _period_and_inverses((model.a_grid, model.b_grid), hamiltonian, taus[0],
                                            np.empty((taus.size, 2 * n, 2 * n)),
                                            _mirror_signs(model, Q))
    Z, n_stable = _stable_subspace(period_map)
    if n_stable != n:
        raise ConvergenceError(f"Hamiltonian period map has {n_stable} stable multipliers, "
                               f"not {n}: (A, B) is not stabilizable or (Q, A) not detectable")
    cond = np.linalg.cond(Z[:n])
    if not cond <= 1e12:
        raise ConvergenceError(f"stable subspace of the Hamiltonian period map is not a graph "
                               f"over the state (cond X = {cond:.3e})")
    # Block b carries the graph from its end node to each of its nodes i at
    # once, by the suffix product back[i] @ ... @ back[end - 1]. Identity maps
    # in front fill the first block, and the nodes they add are dropped.
    pad = -taus.size % RICCATI_BLOCK
    if pad:
        back = np.concatenate([np.broadcast_to(np.eye(2 * n), (pad, 2 * n, 2 * n)), back])
    carry = back.reshape(-1, RICCATI_BLOCK, 2 * n, 2 * n)
    for block in carry:     # one block at a time keeps the temporaries small
        span = 1
        while span < RICCATI_BLOCK:     # a doubling scan: each product spans twice the nodes
            block[:-span] = block[:-span] @ block[span:]
            span *= 2
    carry_x, carry_y = carry[..., :n], carry[..., n:]
    P_end = np.linalg.solve(Z[:n].T, Z[n:].T)
    P_end, gap = 0.5 * (P_end + P_end.T), math.inf
    for sweep in range(1, max_sweeps + 1):
        P, P_next = np.empty(carry_x.shape[:2] + (n, n)), P_end
        for b in reversed(range(len(P))):
            V = carry_x[b] + carry_y[b] @ P_next
            XT = V[:, :n].swapaxes(1, 2)
            try:
                # X^{-T} Y^T = (Y X^{-1})^T, which is P: the graph is symmetric.
                P[b] = np.linalg.solve(XT, V[:, n:].swapaxes(1, 2))
            except np.linalg.LinAlgError as exc:
                # det factors each X^T as solve does, so it is 0 exactly where solve
                # failed; the backward walk meets the last such node first.
                i = b * RICCATI_BLOCK - pad + np.flatnonzero(np.linalg.det(XT) == 0.0)[-1]
                raise ConvergenceError(f"Riccati sweep meets a singular X at tau = "
                                       f"{taus[i]:.6f}") from exc
            P_next = P[b, 0].copy()     # not a view: P's buffer goes once it is symmetrized
        P = P.reshape(-1, n, n)[pad:]
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

    Returns (F, eigenvalues); gains=None gives the open-loop map. t0 must be
    finite, and the gains must sit on the model's grid `taus`. No mirror rule:
    K has none, and a half-period open loop moves the tic-toc moduli by 1e-9.
    """
    if not math.isfinite(t0):
        raise DomainError(f"monodromy start phase t0 must be finite, got {t0!r}")
    if gains is None:
        samplers, assemble = (model.a_grid,), lambda A: A
    elif np.array_equal(gains.taus, model.taus):
        samplers = (model.a_grid, model.b_grid, gains.k_grid)
        assemble = lambda A, B, K: np.add(A, B @ K, out=A)   # A is a fresh sample
    else:
        raise DomainError(f"gains on {gains.taus.size} grid nodes do not sit on the model's "
                          f"grid of {model.taus.size} nodes")
    F = _ordered_product(_interval_maps(samplers, assemble, t0, model.taus.size))
    return F, np.linalg.eigvals(F)
