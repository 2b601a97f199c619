"""Adaptive Simpson quadrature and cumulative trapezoid sums.

The verification oracles in this package check closed-form densities and
costs against numerical integration, so the integrator must be independent
of those closed forms.  Intervals are subdivided until the Richardson
estimate of the local error satisfies ``|dI| <= max(abs_tol, rel_tol*|I|)``.
Tabulated densities and batched cost sweeps accumulate on a fixed mesh with
:func:`cumulative_trapezoid` instead.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
_MAX_DEPTH = 60
_INITIAL_PANELS = 8


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float:
    """Integrate ``f`` over [a, b] by adaptive Simpson subdivision.

    The interval starts from a fixed panel split so features down to a few
    percent of the interval width cannot hide between stencil points.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, rel_tol, abs_tol)

    edges = [a + (b - a) * i / _INITIAL_PANELS for i in range(_INITIAL_PANELS + 1)]
    edges[-1] = b
    total = 0.0
    panel_abs = abs_tol / _INITIAL_PANELS
    for lo, hi in zip(edges, edges[1:]):
        flo, fhi = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
        total += _recurse(f, lo, hi, flo, fm, fhi, whole, rel_tol, panel_abs, _MAX_DEPTH)
    return total


def _recurse(f, a, b, fa, fm, fb, whole, rel_tol, abs_tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * max(abs_tol, rel_tol * abs(left + right)):
        # Richardson correction: Simpson error shrinks 16x per halving.
        return left + right + delta / 15.0
    return _recurse(
        f, a, m, fa, flm, fm, left, rel_tol, 0.5 * abs_tol, depth - 1
    ) + _recurse(f, m, b, fm, frm, fb, right, rel_tol, 0.5 * abs_tol, depth - 1)


def cumulative_trapezoid(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``f`` over ``[x[0], x[i]]`` for every ``i``."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * 0.5 * (f[1:] + f[:-1]))])
