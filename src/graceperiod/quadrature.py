"""Adaptive Simpson quadrature.

The verification oracles in this package check closed-form densities and
costs against numerical integration, so the integrator must be independent
of those closed forms.  Intervals are subdivided until the Richardson
estimate of the local error satisfies ``|dI| <= max(abs_tol, rel_tol*|I|)``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
_MAX_DEPTH = 60
_INITIAL_PANELS = 8
# A level holds every interval still refining, so memory grows with their
# count; past this bound per integral (the verify suite needs at most 38)
# the integrand does not converge, as when it is NaN on a whole stretch.
_MAX_INTERVALS = 1 << 16


def adaptive_simpson(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float | np.ndarray:
    """Integrate ``f`` over [a, b] by adaptive Simpson subdivision.

    ``f(x, which)`` maps an array of nodes to their values, elementwise;
    ``which[j]`` is the flat index, into the broadcast bounds, of the
    integral that node ``x[j]`` belongs to, so one call can integrate a
    different function over each interval (an integrand of one function
    ignores it).  Array bounds give one integral per interval (broadcast),
    each the float of its own call, bit for bit; float bounds go through
    the same pass and give a float.  Each interval starts from a fixed
    panel split so features down to a few percent of its width
    cannot hide between stencil points.  Each subdivision level calls ``f``
    once, on the new nodes of every interval still refining; the values are
    then added back up the tree of splits, so each result is the float of
    the depth-first recursion.  ``a > b`` negates; ``a == b`` gives 0.0 and
    evaluates ``f`` at none of its nodes.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    live = a != b
    sums = np.zeros(live.shape)
    if live.any():
        lo, hi = np.minimum(a, b)[live], np.maximum(a, b)[live]
        sums[live] = _integrate(f, lo, hi, np.flatnonzero(live), rel_tol, abs_tol)
    np.negative(sums, out=sums, where=a > b)
    return float(sums) if sums.ndim == 0 else sums


def _integrate(
    f, a: np.ndarray, b: np.ndarray, index: np.ndarray, rel_tol: float, abs_tol: float
) -> np.ndarray:
    """The integrals over ``a < b``, elementwise, in one level-synchronous
    pass; ``index`` holds each one's flat index, which ``f`` receives."""
    n = len(a)
    edges = a[:, None] + (b - a)[:, None] * np.arange(_INITIAL_PANELS + 1.0) / _INITIAL_PANELS
    edges[:, -1] = b
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    m = 0.5 * (lo + hi)
    which = np.repeat(index, _INITIAL_PANELS)  # the integral of each interval
    # one call for the panels' nodes and those of the first level
    fe = f(
        np.concatenate([edges.ravel(), 0.5 * (lo + m), m, 0.5 * (m + hi)]),
        np.concatenate([np.repeat(index, _INITIAL_PANELS + 1), which, which, which]),
    )
    flm, fm, frm = fe[edges.size :].reshape(3, -1)
    fe = fe[: edges.size].reshape(edges.shape)
    fa, fb = fe[:, :-1].ravel(), fe[:, 1:].ravel()
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    tol = abs_tol / _INITIAL_PANELS
    levels = []  # (value, split) of each level's intervals, coarse to fine
    for depth in range(_MAX_DEPTH, -1, -1):
        left = (m - lo) / 6.0 * (fa + 4.0 * flm + fm)
        right = (hi - m) / 6.0 * (fm + 4.0 * frm + fb)
        total = left + right
        delta = total - whole
        split = ~(np.abs(delta) <= 15.0 * np.maximum(tol, rel_tol * np.abs(total)))
        split &= depth > 0
        # Richardson correction: Simpson error shrinks 16x per halving.
        levels.append((total + delta / 15.0, split))
        cols = split.nonzero()[0]
        if not len(cols):
            break
        # the children: each split interval's left half, then its right half
        pairs = np.array([[lo, m], [m, hi], [fa, fm], [flm, frm], [fm, fb], [left, right]])
        lo, hi, fa, fm, fb, whole = pairs[:, :, cols].transpose(0, 2, 1).reshape(6, -1)
        which = np.repeat(which[cols], 2)
        if len(lo) > _MAX_INTERVALS * n:
            raise RuntimeError(f"adaptive Simpson: over {_MAX_INTERVALS} intervals per integral")
        m = 0.5 * (lo + hi)
        flm, frm = f(
            np.concatenate([0.5 * (lo + m), 0.5 * (m + hi)]), np.concatenate([which, which])
        ).reshape(2, -1)
        tol = 0.5 * tol

    sums = levels.pop()[0]
    while levels:
        value, split = levels.pop()
        value[split] = sums[0::2] + sums[1::2]
        sums = value
    # each integral adds its panels in order, as a running float sum would
    return np.add.accumulate(sums.reshape(n, _INITIAL_PANELS), axis=1)[:, -1] + 0.0
