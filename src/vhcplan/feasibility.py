"""Certificates that no regular controlled-invariant constraint exists.

At a trajectory point with nonzero velocity where the unactuated momentum
B_perp M qdot vanishes while gravity has a component outside Im B, any
constraint reproducing the motion would need a velocity-dependent or
discontinuous feedback, so no regular constraint curve can generate the
orbit. The module scans a trajectory for such points, packages that
argument as a checkable certificate and provides the accessibility
determinant (drift/control vector fields and their iterated brackets) both
in closed form for the thrust-vectored vehicle and by nested
finite-difference brackets for any degree-one model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mech import MechanicalSystem, eval_accel, left_annihilator
from .numdiff import grid_roots, matvec

Array = np.ndarray

RESIDUAL_TOL = 1e-10
SPEED_TOL = 1e-8
GRAVITY_TOL = 1e-8
SCAN_SAMPLES = 2048   # momentum samples per period that `theorem2_scan` bisects between
BRACKET_STEP = 1e-5   # central-difference step of `_bracket` along each field


@dataclass(frozen=True)
class SingularPass:
    """Trajectory point where the unactuated momentum B_perp M qdot crosses zero."""

    time: float
    q: Array
    qdot: Array
    annihilator_residual: float
    speed: float
    gravity_distance: float


def _gravity_distance(sys: MechanicalSystem, q: Array) -> float:
    """Distance |B_perp(q) G(q)| of the gravity vector from the actuated force
    subspace Im B(q): the unit left annihilator spans its complement."""
    return abs(float(left_annihilator(sys, q) @ np.asarray(sys.gravity(q), dtype=float)))


def theorem2_scan(sys: MechanicalSystem, traj) -> list[SingularPass]:
    """Locate zero crossings of B_perp(q) M(q) qdot along a periodic trajectory.

    `traj` must expose `t0`, `period` and `state_at(t) -> (q, qdot, ...)`,
    where `state_at` also takes a 1-D array of times. The SCAN_SAMPLES
    samples are one array call; the grid closes with the wrap sample
    (t0 + period, value at t0), so a crossing in the last interval is found
    too; crossings are bisected to 1e-12 in time; points with speed at most
    SPEED_TOL (rest points) are excluded.
    """
    t0, period = float(traj.t0), float(traj.period)
    times = t0 + period * np.arange(SCAN_SAMPLES) / SCAN_SAMPLES

    def momentum(t):
        q, qdot = (np.asarray(x, dtype=float) for x in traj.state_at(t)[:2])
        p = matvec(sys.mass_matrix(q), qdot)
        return np.sum(left_annihilator(sys, q) * p, axis=-1), q, qdot

    values = momentum(times)[0]
    roots = grid_roots(lambda t: float(momentum(t)[0]), np.append(times, t0 + period),
                       np.append(values, values[0]), xtol=1e-12)
    if len(roots) >= 2 and (roots[0] + period) - roots[-1] <= 1e-9:
        roots.pop()   # the same crossing seen again one period later

    passes = []
    for t_s in roots:
        s, q, qdot = momentum(t_s)
        speed = float(np.linalg.norm(qdot))
        if speed <= SPEED_TOL:
            continue
        passes.append(SingularPass(
            time=t_s, q=q, qdot=qdot, annihilator_residual=abs(float(s)),
            speed=speed, gravity_distance=_gravity_distance(sys, q),
        ))
    return passes


def accessibility_det_closed_form(q: Array, qdot: Array) -> Array:
    """Closed-form bracket determinant for the thrust-vectored vehicle.

    det [f, g1, g2, ad_f g1, ad_f g2, ad_f^2 g1]
        = 2 psid (-psid xd sin(psi) + psid zd cos(psi) + sin(psi)).

    Takes one point (q, qdot of shape (3,)) or a batch of shape (k, 3).
    """
    psi = np.asarray(q, dtype=float).T[2]
    xd, zd, psid = np.asarray(qdot, dtype=float).T
    return 2.0 * psid * (-psid * xd * np.sin(psi) + psid * zd * np.cos(psi) + np.sin(psi))


def _phase_fields(sys: MechanicalSystem):
    """Drift (`eval_accel` at u = 0) and control (columns of M^-1 B) fields at x (..., 2n)."""
    n = sys.n

    def drift(x: Array) -> Array:
        q, qd = x[..., :n], x[..., n:]
        return np.concatenate([qd, eval_accel(sys, q, qd, np.zeros(q.shape[:-1] + (n - 1,)))],
                              axis=-1)

    def control(x: Array, i: int) -> Array:
        q = x[..., :n]
        cols = np.linalg.solve(sys.mass_matrix(q), sys.input_map(q))
        return np.concatenate([np.zeros_like(q), cols[..., i]], axis=-1)

    return drift, [functools.partial(control, i=i) for i in range(n - 1)]


def _bracket(F, G):
    """Lie bracket [F, G] = DG F - DF G via central differences."""
    def fg(x: Array) -> Array:
        fx, gx, h = F(x), G(x), BRACKET_STEP
        return ((G(x + h * fx) - G(x - h * fx)) / (2.0 * h)
                - (F(x + h * gx) - F(x - h * gx)) / (2.0 * h))
    return fg


def accessibility_det_numeric(sys: MechanicalSystem, q: Array, qdot: Array) -> Array:
    """Bracket determinant by nested central-difference Jacobian-vector products.

    Takes one point or a batch, like `accessibility_det_closed_form`.
    """
    f, (g1, g2) = _phase_fields(sys)
    ad_f_g1 = _bracket(f, g1)
    ad_f_g2 = _bracket(f, g2)
    ad2_f_g1 = _bracket(f, ad_f_g1)
    x = np.concatenate([np.asarray(q, dtype=float), np.asarray(qdot, dtype=float)], axis=-1)
    cols = [f(x), g1(x), g2(x), ad_f_g1(x), ad_f_g2(x), ad2_f_g1(x)]
    return np.linalg.det(np.stack(cols, axis=-1))


@dataclass(frozen=True)
class NoVhcCertificate:
    """Scan outcome over one period; verdict is conservative (all records must pass)."""

    verdict: bool
    passes: tuple[SingularPass, ...]
    message: str

    def to_json_dict(self) -> dict:
        return {
            "verdict": "no_regular_vhc" if self.verdict else "inconclusive",
            "message": self.message,
            "tolerances": {"annihilator_residual": RESIDUAL_TOL,
                           "speed": SPEED_TOL, "gravity_distance": GRAVITY_TOL},
            "singular_passes": [
                {
                    "time": p.time,
                    "q": list(p.q),
                    "qdot": list(p.qdot),
                    "annihilator_residual": p.annihilator_residual,
                    "speed": p.speed,
                    "gravity_distance": p.gravity_distance,
                    "hypotheses_ok": _hypotheses_ok(p),
                }
                for p in self.passes
            ],
        }


def _hypotheses_ok(p: SingularPass) -> bool:
    return (p.annihilator_residual <= RESIDUAL_TOL and p.speed > SPEED_TOL
            and p.gravity_distance > GRAVITY_TOL)


def certify_no_regular_vhc(sys: MechanicalSystem, traj) -> NoVhcCertificate:
    """Certify that no regular constraint reproduces `traj`.

    Positive verdict requires at least one singular pass and that every
    detected pass has vanishing unactuated momentum, nonzero speed, and
    gravity outside the actuated subspace.
    """
    passes = tuple(theorem2_scan(sys, traj))
    if not passes:
        return NoVhcCertificate(False, passes,
                                "no singular passes found; certificate inconclusive")
    if all(_hypotheses_ok(p) for p in passes):
        times = ", ".join(f"{p.time:.6f}" for p in passes)
        return NoVhcCertificate(True, passes,
                                f"nondegenerate singular passes at t = {times}")
    return NoVhcCertificate(False, passes,
                            "singular passes found but hypotheses fail; inconclusive")
