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
