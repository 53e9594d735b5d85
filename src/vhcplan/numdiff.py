"""Small numeric helpers shared by the planning modules."""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def bisect(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-13,
           fa: float | None = None, fb: float | None = None) -> float:
    """Bisection for a sign change of f on [a, b], to bracket width xtol."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
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
