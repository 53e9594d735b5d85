"""Virtual holonomic constraints and their reduced dynamics.

A constraint q = phi(theta) collapses the n-DOF model to one scalar degree of
freedom whose motion obeys

    alpha(theta) theta'' + beta(theta) theta'^2 + gamma(theta) = 0,

with coefficients obtained by projecting the dynamics onto the unactuated
direction B_perp. The module evaluates these coefficients, checks the
existence conditions for periodic solutions that cross a regularity-losing
point of the constraint (alpha = 0) and builds the two-parameter-plus-curvature
constraint family anchored at an upright-thrust configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .mech import MechanicalSystem, left_annihilator, pvtol_model
from .numdiff import central_derivative, grid_roots, matvec

Array = np.ndarray


@dataclass(frozen=True)
class ParametricVhc:
    """Smooth curve theta -> phi(theta) in configuration space with two derivatives.

    The curve functions map a scalar theta to shape (n,) and a 1-D array of k
    values to shape (k, n).
    """

    phi: Callable[[float], Array]
    dphi: Callable[[float], Array]
    ddphi: Callable[[float], Array]
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = "vhc"


@dataclass(frozen=True)
class ReducedModel:
    """Scalar reduced dynamics alpha theta'' + beta theta'^2 + gamma = 0 on an interval.

    `coefficients(theta)` returns the array (alpha, beta, gamma): shape (3,)
    for a scalar theta and (3, k) for a 1-D array of k values.
    """

    coefficients: Callable[[Array], Array]
    interval: tuple[float, float]
    vhc: ParametricVhc | None = None


@dataclass(frozen=True)
class SingularityReport:
    """Existence-condition check at the unique interior zero of alpha."""

    theta_s: float
    alpha_slope: float
    slope_margin: float
    beta_s: float
    gamma_s: float
    v_s: float
    flags: dict
    overall: bool
    sign: int
    zeros: tuple

    def to_json_dict(self) -> dict:
        return {
            "theta_s": self.theta_s,
            "alpha_slope": self.alpha_slope,
            "slope_margin": self.slope_margin,
            "beta_s": self.beta_s,
            "gamma_s": self.gamma_s,
            "v_s": self.v_s,
            "flags": dict(self.flags),
            "overall": self.overall,
        }


@dataclass(frozen=True)
class FamilyParameters:
    """Constraint-family parameters found admissible on a symmetric interval."""

    psi_s: float
    k1: float
    k2: float
    k3: float
    interval: tuple[float, float]
    report: SingularityReport

    def to_json_dict(self) -> dict:
        return {
            "psi_s": self.psi_s,
            "k1": self.k1,
            "k2": self.k2,
            "k3": self.k3,
            "interval": list(self.interval),
            "report": self.report.to_json_dict(),
        }


def _coefficients(sys: MechanicalSystem, vhc: ParametricVhc, theta) -> Array:
    q = vhc.phi(theta)
    dp = vhc.dphi(theta)
    ddp = vhc.ddphi(theta)
    w = left_annihilator(sys, q)
    M = sys.mass_matrix(q)
    a = np.sum(w * matvec(M, dp), axis=-1)
    b = np.sum(w * (matvec(M, ddp) + matvec(sys.coriolis(q, dp), dp)), axis=-1)
    g = np.sum(w * sys.gravity(q), axis=-1)
    return np.array([a, b, g])


def reduce(sys: MechanicalSystem, vhc: ParametricVhc,
           interval: tuple[float, float] | None = None) -> ReducedModel:
    """Reduced model of `sys` under `vhc`, restricted to `interval` (default: vhc domain)."""
    if interval is None:
        interval = vhc.domain
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("reduction interval must be finite with lo < hi")
    return ReducedModel(
        coefficients=lambda th: _coefficients(sys, vhc, th),
        interval=(float(lo), float(hi)),
        vhc=vhc,
    )


def tic_toc_vhc(domain: tuple[float, float] = (-2.0, 2.0)) -> ParametricVhc:
    """Constraint curve of the tic-toc motion: (theta, -theta^2/2, pi/2 - arctan 2 theta)."""

    # np.array([...]).T puts the coordinate axis last for a 1-D array of theta.
    def phi(th: float) -> Array:
        return np.array([th, -0.5 * th * th, 0.5 * np.pi - np.arctan(2.0 * th)]).T

    def dphi(th: float) -> Array:
        return np.array([np.ones_like(th), -th, -2.0 / (1.0 + 4.0 * th * th)]).T

    def ddphi(th: float) -> Array:
        return np.array([np.zeros_like(th), np.full_like(th, -1.0),
                         16.0 * th / (1.0 + 4.0 * th * th) ** 2]).T

    return ParametricVhc(phi=phi, dphi=dphi, ddphi=ddphi, domain=domain, name="tictoc")


def family_vhc(sys: MechanicalSystem, q_s: Array, k1: float, k2: float, k3: float,
               domain: tuple[float, float] = (-math.inf, math.inf)) -> ParametricVhc:
    """Constraint family of `sys` through q_s: actuated-direction line plus unactuated curvature.

    phi(theta) = q_s + B(q_s) (k1, k2) theta + (k3/2) B_perp(q_s)^T theta^2.
    """
    if k1 == 0.0 and k2 == 0.0:
        raise DomainError("degenerate family parameters: dphi(0) = 0")
    q_s = np.asarray(q_s, dtype=float)
    B_s = sys.input_map(q_s)
    w_s = left_annihilator(sys, q_s)
    lin = B_s @ np.array([k1, k2])

    def phi(th: float) -> Array:
        th = np.asarray(th, dtype=float)[..., None]
        return q_s + lin * th + 0.5 * k3 * w_s * th * th

    def dphi(th: float) -> Array:
        th = np.asarray(th, dtype=float)[..., None]
        return lin + k3 * w_s * th

    def ddphi(th: float) -> Array:
        th = np.asarray(th, dtype=float)[..., None]
        return k3 * w_s + 0.0 * th

    return ParametricVhc(phi=phi, dphi=dphi, ddphi=ddphi, domain=domain, name="family")


def family_reduced(psi_s: float, k1: float, k2: float, k3: float,
                   interval: tuple[float, float]) -> ReducedModel:
    """Closed-form reduced model of the constraint family of the thrust-vectored vehicle.

    alpha = k1 sin(k2 th) + k3 th cos(k2 th), beta = k3 cos(k2 th),
    gamma = sin(psi_s + k2 th); these agree with the generic projection because
    the annihilator of the upright-thrust model has unit norm.
    """
    vhc = family_vhc(pvtol_model(), np.array([0.0, 0.0, float(psi_s)]), k1, k2, k3,
                     domain=interval)

    def coefficients(th):
        c, s = np.cos(k2 * th), np.sin(k2 * th)
        return np.array([k1 * s + k3 * th * c, k3 * c, np.sin(psi_s + k2 * th)])

    return ReducedModel(coefficients=coefficients,
                        interval=(float(interval[0]), float(interval[1])), vhc=vhc)


# alpha' at a zero of alpha must exceed this fraction of max|alpha| / (hi - lo).
SLOPE_FLOOR = 1e-6


def check_theorem1(model: ReducedModel, n_grid: int = 2048) -> SingularityReport:
    """Existence check for a periodic solution crossing the coefficient singularity.

    Requires, up to a global sign of (alpha, beta, gamma): a unique zero theta_s
    of alpha on the closed sampled interval, alpha'(theta_s) > 0, gamma > 0
    everywhere, and beta(theta_s)/alpha'(theta_s) < -1/2. The report takes the
    orientation with alpha'(theta_s) > 0 (sign -1 when the slope is negative,
    +1 otherwise); no other orientation can pass.

    The slope counts as positive only above SLOPE_FLOOR max|alpha| / (hi - lo),
    clear of the rounding in its finite difference: at a multiple zero of
    alpha the difference reads noise of either sign, and no solution crosses
    there. `slope_margin` is |alpha'| over that floor.
    """
    lo, hi = model.interval
    thetas = np.linspace(lo, hi, n_grid)
    alphas, _, gammas = model.coefficients(thetas)
    zeros = grid_roots(lambda th: float(model.coefficients(th)[0]), thetas, alphas,
                       xtol=1e-13)

    if zeros:
        theta_s = zeros[0]
        h = 1e-6 * (1.0 + abs(theta_s))
        slope = float(central_derivative(model.coefficients, theta_s, h)[0])
        _, beta_s, gamma_s = (float(c) for c in model.coefficients(theta_s))
    else:
        theta_s = slope = beta_s = gamma_s = math.nan

    slope_floor = SLOPE_FLOOR * float(np.max(np.abs(alphas))) / (hi - lo)
    sign = -1 if slope < 0.0 else 1
    # beta/alpha' is invariant under the global sign flip.
    ratio = beta_s / slope if slope != 0.0 else math.nan
    flags = {
        "unique_zero": len(zeros) == 1,
        "slope_positive": math.isfinite(slope) and sign * slope > slope_floor,
        "gamma_positive_on_interval": bool(np.all(sign * gammas > 0.0)),
        "ratio_below_minus_half": math.isfinite(ratio) and ratio < -0.5,
    }
    sb, sg = sign * beta_s, sign * gamma_s
    return SingularityReport(
        theta_s=theta_s, alpha_slope=sign * slope,
        slope_margin=abs(slope) / slope_floor if slope_floor > 0.0 else math.nan,
        beta_s=sb, gamma_s=sg,
        v_s=math.sqrt(-sg / sb) if sb < 0.0 < sg else math.nan,
        flags=flags, overall=all(flags.values()), sign=sign, zeros=tuple(zeros),
    )


_FAMILY_K1 = tuple(0.25 * i for i in range(1, 9))           # 0.25 .. 2.0
_FAMILY_K2 = tuple(0.5 * i for i in range(1, 9))            # 0.5 .. 4.0
_FAMILY_K3 = tuple(-2.0 + 0.25 * i for i in range(8))       # -2.0 .. -0.25
_FAMILY_THETA_MAX = (0.2, 0.35, 0.5)


def _family_prefilter(psi_s: float, k1: float, k2: float, k3: float, tmax: float) -> bool:
    """Necessary closed-form conditions (both global signs) before the full grid check."""
    slope0 = k1 * k2 + k3
    if slope0 == 0.0:
        return False
    if k3 / slope0 >= -0.5:
        return False
    ends = np.linspace(-tmax, tmax, 65)
    gam = np.sin(psi_s + k2 * ends)
    for sign in (1.0, -1.0):
        if sign * slope0 > 0.0 and np.all(sign * gam > 0.0):
            return True
    return False


def find_family_parameters(psi_s: float) -> FamilyParameters | None:
    """Deterministic box search for admissible family parameters at thrust angle psi_s.

    Scans k1 in {0.25..2}, k2 in {0.5..4}, k3 in {-2..-0.25} (steps 0.25/0.5/0.25)
    and symmetric intervals (-theta_max, theta_max), theta_max in {0.2, 0.35, 0.5},
    returning the first tuple whose full existence check passes. Returns None when
    the box holds no admissible tuple.
    """
    if abs(math.sin(psi_s)) < 1e-9:
        raise DomainError("psi_s must avoid horizontal thrust: sin(psi_s) != 0 required")
    for k1 in _FAMILY_K1:
        for k2 in _FAMILY_K2:
            for k3 in _FAMILY_K3:
                for tmax in _FAMILY_THETA_MAX:
                    if not _family_prefilter(psi_s, k1, k2, k3, tmax):
                        continue
                    interval = (-tmax, tmax)
                    report = check_theorem1(family_reduced(psi_s, k1, k2, k3, interval))
                    if report.overall:
                        return FamilyParameters(psi_s, k1, k2, k3, interval, report)
    return None
