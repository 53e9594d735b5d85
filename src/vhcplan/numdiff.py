"""Small numeric helpers shared by the planning modules."""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

Array = np.ndarray


def matvec(A: Array, x: Array) -> Array:
    """A @ x for a matrix or a stack of matrices and a vector or a stack of vectors."""
    return (A @ x[..., None])[..., 0]


def central_derivative(f: Callable[[float], Array], x: float, h: float) -> Array:
    """Central difference with one Richardson extrapolation step (O(h^4)).

    f may return a scalar or an array; an array is differentiated entrywise.
    """
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    h2 = 0.5 * h
    d2 = (f(x + h2) - f(x - h2)) / (2.0 * h2)
    return (4.0 * d2 - d1) / 3.0


def bisect(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
           xtol: float) -> float:
    """Bisection for a sign change of f on [a, b], to bracket width xtol.

    The end values fa = f(a), fb = f(b) come from the caller's samples and are
    not evaluated again: at a rest point f can be about 0 with a sign that
    differs between an array evaluation and a scalar one.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bisect requires a sign change on [a, b]")
    while b - a > xtol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break  # interval below floating resolution
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def grid_roots(f: Callable[[float], float], grid: Array, values: Array,
               xtol: float) -> list[float]:
    """Sorted roots of f from its samples `values` on the increasing `grid`.

    Grid points where a sample is exactly zero are roots; every sign change
    between neighbouring samples is bisected to `xtol` from the sampled end
    values; roots closer than 1e-9 merge into the first of them.
    """
    roots = [float(x) for x in grid[values == 0.0]]
    for i in np.flatnonzero(values[:-1] * values[1:] < 0.0):
        roots.append(bisect(f, float(grid[i]), float(grid[i + 1]),
                            float(values[i]), float(values[i + 1]), xtol))
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


class PeriodicPiecewisePolynomial:
    """Piecewise polynomial on breaks x[0] < ... < x[n], repeated with period x[n] - x[0].

    `coeffs` has scipy's `PPoly` layout (degree + 1, n, *value_shape), highest
    power first, in powers of t - x[i] on piece i. A time wraps into the base
    period and its terms are summed as `PPoly` wraps and sums them, so values
    are bit-identical to scipy's. A float finds its piece by `bisect`, an
    array by `searchsorted`; both add the same terms in the same order.
    """

    def __init__(self, breaks: Array, coeffs: Array):
        self.breaks = np.asarray(breaks, dtype=float)
        if not np.all(np.diff(self.breaks) > 0.0):
            raise ValueError("breaks must be strictly increasing")
        self._breaks = self.breaks.tolist()
        self._x0, self._span = self._breaks[0], self._breaks[-1] - self._breaks[0]
        self._c = np.array(coeffs[::-1], dtype=float)   # lowest power first
        self._c[0] += 0.0                                # PPoly's sum starts at 0.0: -0.0 -> +0.0
        self._value_axes = (...,) + (None,) * (self._c.ndim - 2)
        self._last = len(self._breaks) - 2

    def __call__(self, t: float | Array) -> Array:
        if isinstance(t, float):
            t = self._x0 + (t - self._x0) % self._span
            i = min(bisect_right(self._breaks, t) - 1, self._last)
            d = t - self._breaks[i]
            powers = [1.0]
            for _ in range(len(self._c) - 1):
                powers.append(powers[-1] * d)
            # One cumulative sum adds the terms in order at the cost of one call.
            return np.add.accumulate(self._c[:, i] * np.array(powers)[self._value_axes])[-1]
        t = self._x0 + (np.asarray(t, dtype=float) - self._x0) % self._span
        i = np.minimum(np.searchsorted(self.breaks, t, side="right") - 1, self._last)
        # The same sum term by term: a cumulative sum over the leading axis of a
        # large array loops per element and is many times slower.
        d = (t - self.breaks[i])[self._value_axes]
        value, z = self._c[0, i], d
        for ck in self._c[1:]:
            value = value + ck[i] * z
            z = z * d
        return value


def cubic_coefficients(x: Array, y: Array, dydx: Array | None = None) -> Array:
    """Cubic Hermite coefficients for `PeriodicPiecewisePolynomial` on knots x.

    Values y and slopes dydx run along the first axis. Without dydx the slopes
    are the periodic cubic spline's, which needs y[-1] == y[0]. Repeats scipy's
    `CubicHermiteSpline(x, y, dydx).c` and `CubicSpline(x, y, bc_type="periodic").c`
    operation for operation, their branches for 2 and 3 knots included.
    """
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if dydx is None and len(x) == 2:
        dydx = np.broadcast_to(slope[0], y.shape)
    elif dydx is None and len(x) == 3:
        dydx = np.broadcast_to((slope / dxr).sum(0) / (1.0 / dxr).sum(0), y.shape)
    elif dydx is None:
        # Unknowns s[0..n-2] (s[n-1] = s[0]): a tridiagonal system plus two
        # corner entries. Solve it without the last unknown for two right-hand
        # sides, then get the last unknown from the last row.
        n = len(x)
        ab = np.zeros((3, n - 2))
        ab[0, 2:], ab[0, 1] = dx[:-3], dx[-1]
        ab[1, 1:], ab[1, 0] = 2 * (dx[:-2] + dx[1:-1]), 2 * (dx[-1] + dx[0])
        ab[2] = dx[1:]
        b = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b1 = np.concatenate([3 * (dxr[:1] * slope[-1:] + dxr[-1:] * slope[:1]), b[:-1]])
        b2 = np.zeros_like(b1)
        b2[0], b2[-1] = -dx[0], -dx[-3]
        m = len(b1)
        s1 = solve_banded((1, 1), ab, b1.reshape(m, -1), check_finite=False).reshape(b1.shape)
        s2 = solve_banded((1, 1), ab, b2.reshape(m, -1), check_finite=False).reshape(b2.shape)
        s_last = ((b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
                  / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
        dydx = np.concatenate([s1 + s_last * s2, s_last[None], (s1[0] + s_last * s2[0])[None]])
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - dydx[:-1]) / dxr - t, dydx[:-1], y[:-1]))
