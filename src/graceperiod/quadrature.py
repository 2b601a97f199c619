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
# count; past this bound (the verify suite needs at most 38) the integrand
# does not converge, as when it is NaN on a whole stretch.
_MAX_INTERVALS = 1 << 16


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float:
    """Integrate ``f`` over [a, b] by adaptive Simpson subdivision.

    ``f`` maps an array of nodes to their values, elementwise.  The interval
    starts from a fixed panel split so features down to a few percent of the
    interval width cannot hide between stencil points.  Each subdivision
    level calls ``f`` once, on the new nodes of every interval still
    refining; the values are then added back up the tree of splits, so the
    result is the float of the depth-first recursion.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, rel_tol, abs_tol)

    edges = [a + (b - a) * i / _INITIAL_PANELS for i in range(_INITIAL_PANELS + 1)]
    edges[-1] = b
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    fe = f(np.concatenate([edges, 0.5 * (lo + hi)]))
    fa, fb, fm = fe[:_INITIAL_PANELS], fe[1 : _INITIAL_PANELS + 1], fe[_INITIAL_PANELS + 1 :]
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    tol = abs_tol / _INITIAL_PANELS
    levels = []  # (value, split) of each level's intervals, coarse to fine
    for depth in range(_MAX_DEPTH, -1, -1):
        m = 0.5 * (lo + hi)
        flm, frm = np.split(f(np.concatenate([0.5 * (lo + m), 0.5 * (m + hi)])), 2)
        left = (m - lo) / 6.0 * (fa + 4.0 * flm + fm)
        right = (hi - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        split = ~(np.abs(delta) <= 15.0 * np.maximum(tol, rel_tol * np.abs(left + right)))
        split &= depth > 0
        # Richardson correction: Simpson error shrinks 16x per halving.
        levels.append((left + right + delta / 15.0, split))
        if not split.any():
            break
        # the children: each split interval's left half, then its right half
        lo, hi, fa, fm, fb, whole = (
            np.stack([first[split], second[split]], axis=1).ravel()
            for first, second in ((lo, m), (m, hi), (fa, fm), (flm, frm), (fm, fb), (left, right))
        )
        tol = 0.5 * tol
        if len(lo) > _MAX_INTERVALS:
            raise RuntimeError(f"adaptive Simpson: over {_MAX_INTERVALS} intervals refining")

    sums = levels.pop()[0]
    while levels:
        value, split = levels.pop()
        value[split] = sums[0::2] + sums[1::2]
        sums = value
    total = 0.0
    for v in sums.tolist():
        total += v
    return total

