"""Small numeric helpers shared by the planning modules."""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Callable

import numpy as np

Array = np.ndarray


def matvec(A: Array, x: Array) -> Array:
    """A @ x for a matrix or a stack of matrices and a vector or a stack of vectors."""
    return (A @ x[..., None])[..., 0]


def point_or_batch(a, point_ndim: int = 1):
    """`math` and one point's entries as Python floats, or numpy and a batch's columns `a.T`.

    A point has `point_ndim` dimensions: a vector (1) gives a list, a scalar
    (0: a float, np.float64 or 0-d array) one float. A list or a Python float
    is one point already and comes back as it is. numpy's ufuncs share the
    names of `math` (atan2, atan, hypot, sin, cos, sqrt), so one body serves both.
    """
    if type(a) is list or type(a) is float:
        return math, a
    if getattr(a, "ndim", 0) == point_ndim:
        return math, (a.tolist() if point_ndim else float(a))
    return np, a.T


# Step of `central_derivative` per unit of 1 + |x| (and of `linearize`'s exact B
# rule): its truncation and rounding, eps/h, keep `derivative_gap` below 1e-10.
DIFF_STEP = 1e-4


def central_derivative(f: Callable[[Array], Array], x: float | Array) -> tuple[Array, Array]:
    """f(x) and f'(x) by central differences with one Richardson step (O(h^4)).

    x is a scalar or a vector; coordinate j steps h = DIFF_STEP (1 + |x_j|).
    f is called once, on the stencil x, then x + h e_j, x - h e_j,
    x + h/2 e_j, x - h/2 e_j for each j: (1 + 4n, n) points, or 5 values for
    a scalar x. f puts the stencil on the last axis of its result; the
    derivative puts the coordinates there instead (none for a scalar x).
    """
    x = np.asarray(x, dtype=float)
    h = DIFF_STEP * (1.0 + np.abs(x.reshape(-1)))
    points = np.tile(x.reshape(-1), (1 + 4 * h.size, 1))
    for j, hj in enumerate(h):
        points[1 + 4 * j:5 + 4 * j, j] += hj * np.array([1.0, -1.0, 0.5, -0.5])
    values = np.asarray(f(points[:, 0] if x.ndim == 0 else points))
    shifted = values[..., 1:].reshape(values.shape[:-1] + (h.size, 4))
    d1 = (shifted[..., 0] - shifted[..., 1]) / (2.0 * h)
    d2 = (shifted[..., 2] - shifted[..., 3]) / h
    derivative = (4.0 * d2 - d1) / 3.0
    return values[..., 0], derivative[..., 0] if x.ndim == 0 else derivative


def grid_roots(f: Callable[[float], float], grid: Array, values: Array,
               xtol: float) -> list[float]:
    """Sorted roots of f from its samples `values` on the increasing `grid`.

    Grid points where a sample is exactly zero are roots; every sign change
    between neighbouring samples is bisected to `xtol`. The end values of a
    bracket are the samples, not evaluated again: at a rest point f can be
    about 0 with a sign that differs between an array evaluation and a scalar
    one. Roots closer than 1e-9 merge into the first of them.
    """
    roots = [float(x) for x in grid[values == 0.0]]
    for i in np.flatnonzero(values[:-1] * values[1:] < 0.0):
        a, b, fa = float(grid[i]), float(grid[i + 1]), float(values[i])
        while b - a > xtol:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break  # interval below floating resolution
            fm = f(m)
            if fm == 0.0:
                a = b = m
            elif fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


class PeriodicPiecewisePolynomial:
    """Piecewise polynomial on breaks x[0] < ... < x[n], repeated with period x[n] - x[0].

    `coeffs` has scipy's `PPoly` layout (degree + 1, n, *value_shape), highest
    power first, in powers of t - x[i] on piece i. A time wraps into the base
    period, and `derivatives` sums its piece by Horner's rule. An array of
    times finds its pieces by `searchsorted` and sums on numpy. One float
    time, which a Runge-Kutta stage reads faster than any array, finds its
    piece by `bisect` and sums on Python floats from `_rows`, a list table
    of every piece that its first read builds. Both take the same steps in
    the same order, so one time and its row of an array agree bit for bit.
    """

    def __init__(self, breaks: Array, coeffs: Array):
        self.breaks = np.asarray(breaks, dtype=float)
        if not np.all(np.diff(self.breaks) > 0.0):
            raise ValueError("breaks must be strictly increasing")
        self._breaks = self.breaks.tolist()
        self._x0, self._span = self._breaks[0], self._breaks[-1] - self._breaks[0]
        self._c = np.array(coeffs[::-1], dtype=float, order="C")   # lowest power first
        self._last = len(self._breaks) - 2

    @functools.cached_property
    def _rows(self) -> list:
        """Per piece, each entry's coefficients [a0, a1, ...] as Python floats, nested
        as the value's shape."""
        return np.moveaxis(self._c, 0, -1).tolist()

    def __call__(self, t: float | Array) -> Array:
        value = np.asarray(self.derivatives(t, 0))[..., 0]
        return value[()] if isinstance(t, float) else value   # a numpy scalar at one float

    def derivatives(self, t: float | Array, count: int) -> Array | list:
        """The value at time t or at an array of times and its first `count`
        derivatives, stacked on a last axis; one float t (an np.float64 too)
        gives nested lists of Python floats."""
        if isinstance(t, float):
            t = self._x0 + (float(t) - self._x0) % self._span
            i = min(bisect_right(self._breaks, t) - 1, self._last)
            return _horner(self._rows[i], t - self._breaks[i], count)
        t = self._x0 + (np.asarray(t, dtype=float) - self._x0) % self._span
        i = np.minimum(np.searchsorted(self.breaks, t, side="right") - 1, self._last)
        d = (t - self.breaks[i])[(...,) + (None,) * (self._c.ndim - 2)]
        return np.stack(_horner(self._c[:, i], d, count), axis=-1)


def _horner(c, d, count: int) -> list:
    """A piece and its first `count` derivatives at offset d by Horner's rule, from its
    coefficients c, lowest power first: arrays, or one float read's row of `_rows`,
    which holds each entry's list of floats nested as the value's shape."""
    if type(c[0]) is list:
        return [_horner(entry, d, count) for entry in c]
    out = []
    for nu in range(count + 1):
        if nu:   # the coefficients of the next derivative
            c = [a * j for j, a in enumerate(c[1:], 1)]
        value = c[-1]
        for a in c[-2::-1]:
            value = value * d + a
        out.append(value)
    return out


def cubic_coefficients(x: Array, y: Array, dydx: Array) -> Array:
    """Cubic Hermite coefficients for `PeriodicPiecewisePolynomial` on knots x.

    Values y and slopes dydx run along the first axis. Repeats scipy's
    `CubicHermiteSpline(x, y, dydx).c` operation for operation.
    """
    dxr = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - dydx[:-1]) / dxr - t, dydx[:-1], y[:-1]))
