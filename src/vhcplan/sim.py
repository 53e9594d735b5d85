"""Closed-loop simulation of the full nonlinear plant under the orbital feedback.

The loop takes Dormand-Prince steps at rtol = atol = SIM_TOL by `rk45_steps`,
which is scipy's `solve_ivp(method="RK45")` (Dormand & Prince, J. Comput. Appl.
Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6) operation
for operation, without its import cost; tests check its steps bit for bit
against scipy's. A step keeps on numpy only the sums scipy takes with np.dot
and the error norm, and runs the rest on Python floats: about 19-20 us per
accepted step on a trivial 6-D right-hand side, against 22-24 us with that
arithmetic on 6-entry arrays. The control u = u*(tau) + K(tau) rho is
recomputed at every stage, on Python floats: the chart's `reference_input`
gives u*(tau) as a list (about 0.5 us) and `GainSchedule.k_rho` gives K(tau)
rho (about 2.7 us) from the list table that every one-float read of a
`PeriodicPiecewisePolynomial` sums. A tic-toc stage costs about 7.7 us
and, with its share of the step, 12.8 us. The loop keeps each accepted step's
quartic, and the output rows at the times k dt are read off them after the
loop (`rk45_dense`). The transverse coordinates of each output row are logged,
so convergence into the orbit can be read off directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ModelInvariantError
from .mech import MechanicalSystem, solve_accel
from .numdiff import matvec
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


# The Dormand-Prince RK5(4) tableau, its error weights E (5th minus 4th order)
# and the matrix P of the quartic dense output, as in scipy's RK45. The nodes C
# are Python floats and the rows A[s, :s] of stages 1-5 are split off once:
# a stage then indexes no array.
_C = [0, 1/5, 3/10, 4/5, 8/9, 1]
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_A_ROWS = [_A[s, :s] for s in range(1, 6)]
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


def _rms(x: Array) -> float:
    # The sum np.linalg.norm takes for a vector, so scipy's RK45 norm bit for bit.
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def rk45_steps(fun, y0: Array, t_bound: float, tol: float):
    """Accepted RK45 steps from t = 0 toward t_bound, one at a time.

    Repeats scipy's `solve_ivp(fun, (0, t_bound), y0, method="RK45",
    rtol=tol, atol=tol)`: its initial step choice, RMS error norm and step
    control, FSAL stages, 10-ulp minimum step and t_bound clamp, operation for
    operation. The sums scipy takes with np.dot, and the norm, stay on numpy;
    the elementwise rest of a step runs on Python floats, whose IEEE arithmetic
    gives the same bits. fun(t, y) gets y as a list of floats and returns y' as
    an array or as a list of floats. Yields (t_old, h, y_old, Q, t, y) per
    step, Q its quartic (`rk45_dense`) and y the fifth-order solution at its
    end t, y_old and y as lists. Ends at t_bound (at once if it is 0) or when
    the step falls below its minimum or is NaN (a NaN right-hand side shrinks
    it there, or at the first call makes it NaN); a caller sees the latter as a
    last t short of t_bound. A t_bound of +-inf is valid; a NaN t_bound raises
    DomainError before the first step.
    """
    if math.isnan(t_bound):
        raise DomainError(f"t_bound must not be NaN, got {t_bound}")
    if t_bound == 0.0:
        return
    direction = math.copysign(1.0, t_bound)
    y = np.asarray(y0, dtype=float)
    t, f = 0.0, np.asarray(fun(0.0, y.tolist()), dtype=float)
    # Initial step (Hairer, Norsett & Wanner, II.4), scipy's select_initial_step.
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_bound))
    d2 = _rms((fun(h0 * direction, (y + h0 * direction * f).tolist()) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, abs(t_bound))
    K = np.empty((7, y.size))
    stages = [(s, c, K[:s].T, a) for s, c, a in zip(range(1, 6), _C[1:], _A_ROWS)]
    K[0] = f   # first same as last: an accepted step's last stage starts the next
    y = y.tolist()
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:   # a NaN h_abs too, which scipy's loop never leaves
                return
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for s, c, K_s, a in stages:
                K[s] = fun(t + c * h, [y_m + dy * h for y_m, dy in zip(y, K_s.dot(a).tolist())])
            y_new = [y_m + h * dy for y_m, dy in zip(y, K[:-1].T.dot(_B).tolist())]
            K[-1] = fun(t + h, y_new)
            # scipy's scale tol + max(|y|, |y_new|) tol, y_new first: max keeps its
            # first argument against a NaN, and y_new is NaN wherever y is, so a
            # NaN reaches the norm as np.maximum carries it.
            error_norm = _rms(np.array([
                e * h / (tol + max(abs(b), abs(a)) * tol)
                for e, a, b in zip(K.T.dot(_E).tolist(), y, y_new)]))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** -0.2))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            rejected = True
        yield t, h, y, K.T.dot(_P), t_new, y_new
        t, y, K[0] = t_new, y_new, K[-1]
        if direction * (t - t_bound) >= 0:
            return


def rk45_dense(t_old, h, y_old: Array, Q: Array, s):
    """A step's quartic y_old + h sum_k Q[:, k] x^(k+1), x = (s - t_old)/h, at time s, or per
    entry of an array s off one step or off its row's step (Hairer, Norsett & Wanner, II.6)."""
    p = np.cumprod(np.multiply.outer((np.asarray(s) - t_old) / h, np.ones(4)), axis=-1)
    return np.asarray(h)[..., None] * matvec(Q, p) + y_old


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

    def stop(message: str, t: float, y: Array | list[float]):
        raise ConvergenceError(f"simulation {message} at t = {t:.3f}", {
            "time": float(t), "final_state": list(map(float, y)), "rhs_evals": evals})

    def feedback(tau, rho: Array) -> Array:
        u = np.asarray(chart.reference_input(tau))
        if gains is not None:
            u = u + matvec(gains.k_of(tau), rho)
        return u

    # A stage runs on Python floats: the chart and the dynamics take the point
    # as lists and return rho and q'' as lists, and y' goes back as a list.
    def rhs(t: float, x: list[float]) -> list[float]:
        nonlocal evals
        evals += 1
        if evals > budget:
            stop(f"spent its budget of {budget} right-hand sides", t, x)
        # max and min skip a NaN that is not first; the sum does not.
        if not (max(x) <= SIM_MAX_STATE and -SIM_MAX_STATE <= min(x) and math.isfinite(sum(x))):
            if not all(map(math.isfinite, x)):
                raise ModelInvariantError("phase state must be finite")
            stop("diverged", t, x)
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
    # off that step's quartic.
    ys = np.empty((len(ts), 2 * n))
    ys[0] = y0
    taus, rhos, us = np.empty(len(ts)), np.empty((len(ts), 2 * n - 1)), np.empty((len(ts), n - 1))
    for i in range(0, len(ts), 256):
        b, r = slice(i, i + 256), slice(max(i, 1), i + 256)
        if n_steps:
            j = np.searchsorted(ends, ts[r])
            ys[r] = rk45_dense(t_old[j], h[j], y_old[j], Q[j], ts[r])
        taus[b], rhos[b] = chart.forward(ys[b, :n], ys[b, n:])
        us[b] = feedback(taus[b], rhos[b])
    return SimulationResult(t=ts, q=ys[:, :n], qdot=ys[:, n:], u=us, tau=taus, rho=rhos,
                            dt=dt, metadata={"open_loop": gains is None, "horizon": float(horizon),
                                             "rhs_evals": evals, "integrator_steps": len(h),
                                             "tol": SIM_TOL})
