"""Conflict costs: pointwise, offline-optimal, and expected under a strategy.

For a conflict with chain size ``k``, abort cost ``B``, hidden remaining
time ``y``, and granted grace period ``x``:

* commit branch (``y < x``): the receiver finishes; the other ``k-1``
  transactions waited ``y``, so the extra cost is ``(k-1)*y`` in both modes.
* abort branch (``y >= x``; ties abort): requestor-wins pays ``k*x + B``
  (the receiver's wasted ``x``, the waiters' ``(k-1)*x``, and the abort
  penalty); requestor-aborts pays ``(k-1)*(x + B)`` since the ``k-1``
  requestors are the ones thrown away.

The offline optimum with foresight is :func:`opt_cost`, ``min((k-1)*y, B)``.

Every cost function takes arrays of points and broadcasts.  Expected costs
are keyed by the strategy alone: its spec carries the mode, ``k`` and ``B``,
and only the adversary's ``y`` is passed.  They are exact to rounding: every
strategy carries its distribution function ``F`` and partial first moment
``M``, and the cost is linear in them (see :func:`batch_expected_costs`;
:func:`expected_cost` is its one-point view).

The discrete classic strategy is scored in integer days with the classic
accounting: a strategy that fires the abort on day ``i`` pays ``i-1+B``, the
grace actually granted being ``i-1``, and commits iff ``y < i``.  That is
``conflict_cost`` at grace ``i`` and abort cost ``B - 1``, the strategy's
``abort_cost``, which the simulator charges too; it is the convention under
which its expected cost equals ``min(D, B) / (1 - (1-1/B)**B)`` for every
integer horizon ``D``.
"""

from __future__ import annotations

import sys

import numpy as np

# unused here, but perfbench/probes.py patches costmodel.adaptive_simpson
from .quadrature import adaptive_simpson  # noqa: F401
from .strategy import ConflictMode, GracePeriodStrategy


def opt_cost(k, B, y, out=None):
    """Offline optimum ``min((k-1)*y, B)``, elementwise over broadcastable arrays,
    written into ``out`` when it is given (then no temporary is made)."""
    return np.minimum(np.multiply(k - 1, y, out=out), B, out=out)


def conflict_cost(mode: ConflictMode, k, B, x, y, out=None):
    """Total cost of grace ``x`` against remaining time ``y``; ties abort.

    The commit branch (``y < x``) costs ``(k-1)*y``; the abort branch costs
    ``k*x + B`` (requestor wins) or ``(k-1)*(x + B)`` (requestor aborts).
    ``x``, ``y`` and arrays ``k`` and ``B`` broadcast; the result is an array
    (0-d for two floats).  Passing ``y = x`` gives the abort branch alone.
    That branch is formed in one float array (``out`` of ``x``'s shape when
    given), which int inputs upcast into.
    """
    x, y = np.asarray(x), np.asarray(y)
    if mode is ConflictMode.REQUESTOR_WINS:
        abort = np.multiply(k, x, out=out, dtype=float)
        abort += B
    else:
        abort = np.add(x, B, out=out, dtype=float)
        abort *= k - 1
    commit = y if not isinstance(k, np.ndarray) and k == 2 else (k - 1) * y  # (k-1)*y is y at 2
    return np.where(y < x, commit, abort)


def expected_cost(strategy: GracePeriodStrategy, y: float) -> float:
    """Expected conflict cost of ``strategy`` against remaining time ``y``: one
    point of :func:`batch_expected_costs`.  Mode, ``k`` and ``B`` are the spec's."""
    if not 0.0 < y <= sys.float_info.max:  # NaN, inf and an int past the float range too
        raise ValueError(f"remaining time y must be positive and finite, got {y}")
    return float(batch_expected_costs(strategy, np.array([y]))[0])


def batch_expected_costs(strategy: GracePeriodStrategy, ys) -> np.ndarray:
    """Expected costs for many adversary points in one pass.

    Every strategy is costed from its distribution ``F`` and partial first
    moment ``M(y) = E[x; x <= y]``, at its ``abort_cost`` ``B``: graces up to
    ``y`` abort and the rest commit, so the cost is ``(k-1)y(1-F) + B*F + k*M``
    (requestor wins) or ``(k-1)y(1-F) + (k-1)(B*F + M)`` (requestor aborts).
    Past the support ``F = 1`` and ``M`` is the mean.  A NaN or infinite ``y``
    raises a ValueError.
    """
    ys = np.asarray(ys, dtype=float)
    if not np.isfinite(ys).all():
        raise ValueError(f"remaining times y must be finite, got {ys[~np.isfinite(ys)][0]}")
    mode, k, B = strategy.spec.mode, strategy.spec.k, strategy.abort_cost
    S = strategy.support_max
    below = np.where(ys < S, strategy.cdf(ys), 1.0)
    moment = strategy.moment(ys)
    # nothing commits past the support, where (k-1)*y could overflow and times 0 give NaN
    commit = (k - 1) * np.minimum(ys, S) * (1.0 - below)
    if mode is ConflictMode.REQUESTOR_WINS:
        return commit + B * below + k * moment
    return commit + (k - 1) * (B * below + moment)


def batch_ratios(strategy: GracePeriodStrategy, ys) -> np.ndarray:
    """``expected_cost/opt_cost`` at each point adversary in ``ys``.

    Past the support the strategy aborts with certainty and the ratio is
    normalized by ``opt = B``.
    """
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0.0):
        raise ValueError("adversary grid must be strictly positive")
    costs = batch_expected_costs(strategy, ys)
    return costs / opt_cost(strategy.spec.k, strategy.spec.B, ys)


def ratio_profile(strategy: GracePeriodStrategy, y_grid) -> list[tuple[float, float]]:
    """``(y, ratio)`` pairs of :func:`batch_ratios` over a grid."""
    ys = np.asarray(y_grid, dtype=float)
    return list(zip(ys.tolist(), batch_ratios(strategy, ys).tolist()))
