"""Euler-Lagrange mechanics with underactuation degree one.

Models have the forced form M(q)q'' + C(q,q')q' + G(q) = B(q)u with n
configuration variables and n-1 independent inputs, so the annihilated
direction of B carries the single unactuated balance law. The planar
vertical-takeoff vehicle (thrust + torque in the vertical plane) ships as the
reference model together with its tic-toc reference motion, an oscillation
whose thrust axis sweeps through the vertical at the passes through the
origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import ModelInvariantError
from .numdiff import matvec, point_or_batch

Array = np.ndarray


@dataclass(frozen=True)
class MechanicalSystem:
    """Evaluators of a mechanical model; all callables are pure functions of q (and q').

    Batched evaluation passes q of shape (k, n); each callable then returns a
    stack of k results, or one result that holds for every q (a constant mass
    matrix, say), which broadcasts over the batch.

    The optional `accel(q, qdot, u)` is a closed-form forward dynamics that
    `solve_accel` returns instead of its mass solve. It must equal
    M^{-1}(B u - C q' - G) of this model's own fields, for one point or a
    batch, complex too (`linearize`), and take one point's q and qdot as
    lists, as the closed loop's stages pass them, returning a list. The optional
    `inverse(q, qdot, qddot) -> (u, residual)` is likewise a closed-form
    `inverse_input`, for one point's arrays or a batch's. A copy whose M, C, G
    or B is replaced (by `dataclasses.replace`, say) must drop both
    (accel=None, inverse=None) or supply matching ones.
    """

    n: int
    mass_matrix: Callable[[Array], Array]
    coriolis: Callable[[Array, Array], Array]
    gravity: Callable[[Array], Array]
    input_map: Callable[[Array], Array]
    # Optional closed-form left annihilator of input_map; when present it
    # replaces the cofactor vector of `left_annihilator` (same orientation expected).
    annihilator: Callable[[Array], Array] | None = None
    accel: Callable[[Array, Array, Array], Array] | None = None
    inverse: Callable[[Array, Array, Array], tuple] | None = None
    name: str = "generic"


def eval_accel(sys: MechanicalSystem, q: Array, qdot: Array, u: Array) -> Array:
    """Solve M(q)q'' = B(q)u - C(q,q')q' - G(q) for the acceleration.

    A single point has q, qdot of shape (n,) and u of shape (n-1,); a batch of
    k points has shapes (k, n) and (k, n-1). Raises ModelInvariantError for a
    phase state of the wrong shape or with a non-finite entry, ValueError for
    u of the wrong shape; `solve_accel` does the solve.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    u = np.asarray(u, dtype=float)
    if q.shape != qdot.shape or q.shape[-1:] != (sys.n,) or q.ndim > 2:
        raise ModelInvariantError(f"q and qdot must both have shape ({sys.n},) or (k, {sys.n})")
    if not (np.isfinite(q).all() and np.isfinite(qdot).all()):
        raise ModelInvariantError("phase state must be finite")
    if u.shape != q.shape[:-1] + (sys.n - 1,):
        raise ValueError(f"u must have shape {q.shape[:-1] + (sys.n - 1,)}")
    return solve_accel(sys, q, qdot, u)


def solve_accel(sys: MechanicalSystem, q: Array, qdot: Array, u: Array) -> Array:
    """The solve of `eval_accel` without its argument checks.

    q, qdot and u must be float arrays of the shapes `eval_accel` accepts, and
    q, qdot finite; a caller that checks them once for many calls (the
    closed-loop simulation) calls this directly. One point's q and qdot may
    also be lists of floats, and the acceleration is then a list. A model's
    closed-form `accel` replaces the solve; otherwise raises
    ModelInvariantError when the mass matrix is not finite or not positive
    definite.
    """
    if sys.accel is not None:
        return sys.accel(q, qdot, u)
    as_list = isinstance(q, list)
    q, qdot, u = (np.asarray(a, dtype=float) for a in (q, qdot, u))
    M = np.asarray(sys.mass_matrix(q), dtype=float)
    rhs = matvec(sys.input_map(q), u) - matvec(sys.coriolis(q, qdot), qdot) - sys.gravity(q)
    a = _spd_solve(M, rhs)
    return a.tolist() if as_list else a


def _spd_solve(M: Array, rhs: Array) -> Array:
    """M^{-1} rhs for symmetric positive definite M, one matrix or a stack.

    One M serves every right-hand side of a stack. The lowest eigenvalue of
    the lower triangle's symmetric matrix rejects an M that is not positive
    definite; symmetry of M is the model's contract and is not checked.
    """
    if not np.isfinite(M).all():
        raise ModelInvariantError("mass matrix must be finite")
    if not np.all(np.linalg.eigvalsh(M)[..., 0] > 0.0):   # ascending: the lowest comes first
        raise ModelInvariantError("mass matrix is not symmetric positive definite")
    return np.linalg.solve(M, rhs[..., None])[..., 0]


def inverse_input(sys: MechanicalSystem, q: Array, qdot: Array, qddot: Array):
    """Least-squares input for a prescribed acceleration (B(q) of full column rank).

    Returns (u, residual) where residual = |B_perp (M q'' + C q' + G)| measures
    the component of the required generalized force outside the actuated
    subspace (B_perp has unit norm, so the residual is scale-free). Accepts a
    single point or a batch along a leading axis, like `eval_accel`. A model's
    closed-form `inverse` replaces the solve.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    qddot = np.asarray(qddot, dtype=float)
    if sys.inverse is not None:
        return sys.inverse(q, qdot, qddot)
    force = (matvec(sys.mass_matrix(q), qddot) + matvec(sys.coriolis(q, qdot), qdot)
             + sys.gravity(q))
    B = np.asarray(sys.input_map(q), dtype=float)
    Bt = np.swapaxes(B, -1, -2)
    u = np.linalg.solve(Bt @ B, matvec(Bt, force)[..., None])[..., 0]
    residual = np.abs(np.sum(left_annihilator(sys, q) * force, axis=-1))
    return u, residual


def left_annihilator(sys: MechanicalSystem, q: Array) -> Array:
    """Unit row vector B_perp(q) with B_perp(q) B(q) = 0 (one row per point of a batch).

    B_perp is the normalized cofactor vector of the n x (n-1) input map,
    w_i = (-1)^i det(B without row i). It is a polynomial in the entries of
    B, so its orientation stays continuous along any curve q(s). A
    closed-form annihilator attached to the model is used instead (after
    normalization). Raises ModelInvariantError where B loses rank.
    """
    q = np.asarray(q, dtype=float)
    if sys.annihilator is not None:
        w = np.asarray(sys.annihilator(q), dtype=float)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)
    B = np.asarray(sys.input_map(q), dtype=float)
    n = B.shape[-2]
    w = np.stack([(-1.0) ** i * np.linalg.det(np.delete(B, i, axis=-2)) for i in range(n)],
                 axis=-1)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    # Hadamard: |w| <= sqrt(n) prod |B_j|, so a tiny |w| relative to that is rank loss.
    scale = np.prod(np.linalg.norm(B, axis=-2), axis=-1)[..., None]
    if np.any(norm <= n * n * np.finfo(float).eps * scale):
        raise ModelInvariantError("input map does not have a one-dimensional left null space")
    return w / norm


def pvtol_model() -> MechanicalSystem:
    """Planar thrust-vectored vehicle: x'' = -u1 sin(psi), z'' = u1 cos(psi) - 1, psi'' = u2."""
    eye = np.eye(3)
    zeros = np.zeros((3, 3))
    grav = np.array([0.0, 1.0, 0.0])

    # q.T[2] is the thrust angle of a point (shape (3,)) or of each point of a
    # batch (shape (k, 3)).
    def input_map(q: Array) -> Array:
        psi = q.T[2]
        B = np.zeros(np.shape(psi) + (3, 2))
        B[..., 0, 0] = -np.sin(psi)
        B[..., 1, 0] = np.cos(psi)
        B[..., 2, 1] = 1.0
        return B

    def annihilator(q: Array) -> Array:
        psi = q.T[2]
        return np.array([np.cos(psi), np.sin(psi), 0.0 * psi]).T

    # M = I and C = 0: the solve is B u - G. Adding to 0.0 gives +0.0 wherever
    # the generic matrix products (which sum from 0.0) give a zero.
    def accel(q: Array, qdot: Array, u: Array) -> Array:
        m, (_, _, psi) = point_or_batch(q)
        _, (u1, u2) = point_or_batch(u)
        a = [0.0 - u1 * m.sin(psi), u1 * m.cos(psi) - 1.0, 0.0 + u2]
        return a if type(q) is list else np.array(a).T

    # B^T B = I: u = B^T f for the force f = q'' + G, +0.0 where the generic sums give it;
    # the residual |B_perp f| normalizes B_perp = (cos psi, sin psi, 0) as `left_annihilator`.
    def inverse(q: Array, qdot: Array, qddot: Array):
        m, (_, _, psi) = point_or_batch(q)
        _, (fx, zdd, psidd) = point_or_batch(qddot)
        s, c, fx, fz = m.sin(psi), m.cos(psi), fx + 0.0, zdd + 1.0
        norm = m.sqrt(c * c + s * s)
        return np.array([c * fz - s * fx + 0.0, psidd + 0.0]).T, abs(c / norm * fx + s / norm * fz)

    return MechanicalSystem(
        n=3,
        mass_matrix=lambda q: eye,
        coriolis=lambda q, qdot: zeros,
        gravity=lambda q: grav,
        input_map=input_map,
        annihilator=annihilator,
        accel=accel,
        inverse=inverse,
        name="pvtol",
    )


def tic_toc_reference(t: float):
    """Reference state and input of the tic-toc oscillation at time t.

    Returns (q, qdot, u). The motion traces x = sin t, z = -sin^2(t)/2 while
    the thrust axis tilts by -arctan(2 sin t) about the vertical; both inputs
    vanish at the singular passes t = 0, pi where the thrust line meets the
    gravity direction. A 1-D array of times gives arrays of shape (k, 3),
    (k, 3) and (k, 2).
    """
    st, ct = np.sin(t), np.cos(t)
    s2 = 1.0 + 4.0 * st * st
    q = np.array([st, -0.5 * st * st, 0.5 * np.pi - np.arctan(2.0 * st)]).T
    qdot = np.array([ct, -st * ct, -2.0 * ct / s2]).T
    return q, qdot, tic_toc_input(t)


def tic_toc_input(t: float) -> Array:
    """Reference input u of tic_toc_reference alone: shape (2,) at one time, (k, 2) at k times."""
    return np.array(tic_toc_input_terms(*point_or_batch(t, point_ndim=0))).T


def tic_toc_input_terms(m, t) -> list:
    """[u1, u2] of `tic_toc_input` on `m`: `math` and one time t give Python floats."""
    st = m.sin(t)
    u2 = (12.0 * st + 2.0 * m.sin(3.0 * t)) / (3.0 - 2.0 * m.cos(2.0 * t)) ** 2
    return [st * m.sqrt(1.0 + 4.0 * st * st), u2]


def tic_toc_orbit() -> SimpleNamespace:
    """The tic-toc reference as a periodic orbit: `t0`, `period` and `state_at(t) -> (q, qdot)`.

    `state_at` takes a time or a 1-D array of times, like tic_toc_reference.
    """
    return SimpleNamespace(t0=-0.5 * np.pi, period=2.0 * np.pi,
                           state_at=lambda t: tic_toc_reference(t)[:2])


def tic_toc_acceleration(t: float) -> Array:
    """Analytic acceleration of the tic-toc reference (companion to tic_toc_reference)."""
    return np.array([-np.sin(t), -np.cos(2.0 * t), tic_toc_input(t).T[1]]).T
