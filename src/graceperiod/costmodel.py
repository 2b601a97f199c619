"""Conflict costs: pointwise, offline-optimal, and expected under a strategy.

For a conflict with chain size ``k``, abort cost ``B``, hidden remaining
time ``y``, and granted grace period ``x``:

* commit branch (``y < x``): the receiver finishes; the other ``k-1``
  transactions waited ``y``, so the extra cost is ``(k-1)*y`` in both modes.
* abort branch (``y >= x``; ties abort): requestor-wins pays ``k*x + B``
  (the receiver's wasted ``x``, the waiters' ``(k-1)*x``, and the abort
  penalty); requestor-aborts pays ``(k-1)*(x + B)`` since the ``k-1``
  requestors are the ones thrown away.

The offline optimum with foresight is ``min((k-1)*y, B)``.

The discrete classic strategy is scored in integer days with the classic
accounting (a strategy that commits on day ``i`` pays ``i-1+B`` when it
fires the abort, i.e. the grace actually granted is ``i-1``); that is the
convention under which its expected cost equals
``min(D, B) / (1 - (1-1/B)**B)`` for every integer horizon ``D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_simpson, cumulative_trapezoid
from .strategy import ConflictMode, GracePeriodStrategy, StrategyKind

_PROFILE_MESH = 32769  # base resolution of the batched cost profile


@dataclass(frozen=True)
class ConflictInstance:
    """One conflict: mode, chain size, abort cost, hidden remaining time."""

    mode: ConflictMode
    k: int
    B: float
    y: float

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"chain size k must be an integer >= 2, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if not (self.B > 0.0 and math.isfinite(self.B)):
            raise ValueError(f"abort cost B must be positive, got {self.B}")
        if not (self.y > 0.0 and math.isfinite(self.y)):
            raise ValueError(f"remaining time y must be positive, got {self.y}")


def opt_cost(instance: ConflictInstance) -> float:
    """Offline optimum ``min((k-1)*y, B)``."""
    return min((instance.k - 1) * instance.y, instance.B)


def conflict_cost(mode: ConflictMode, k: int, B: float, x, y):
    """Total cost of grace ``x`` against remaining time ``y``; ties abort.

    The commit branch (``y < x``) costs ``(k-1)*y``; the abort branch costs
    ``k*x + B`` (requestor wins) or ``(k-1)*(x + B)`` (requestor aborts).
    ``x`` and ``y`` may be floats or broadcastable arrays; two floats give a
    float.  Passing ``y = x`` gives the abort branch alone.
    """
    if mode is ConflictMode.REQUESTOR_WINS:
        abort = k * x + B
    else:
        abort = (k - 1) * (x + B)
    commit = y < x
    if isinstance(commit, bool):
        return (k - 1) * y if commit else abort
    return np.where(commit, (k - 1) * y, abort)


def _check_match(strategy: GracePeriodStrategy, instance: ConflictInstance):
    s = strategy.spec
    if s.mode is not instance.mode or s.k != instance.k or s.B != instance.B:
        raise ValueError(
            f"strategy ({s.mode.value}, k={s.k}, B={s.B}) does not match "
            f"instance ({instance.mode.value}, k={instance.k}, B={instance.B})"
        )


def expected_cost(strategy: GracePeriodStrategy, instance: ConflictInstance) -> float:
    """Expected conflict cost of ``strategy`` against a point adversary.

    Continuous densities are integrated by adaptive Simpson quadrature with
    the integrand split at the commit/abort branch point; discrete pmfs sum
    exactly; atoms evaluate pointwise.
    """
    _check_match(strategy, instance)
    k, B, y = instance.k, instance.B, instance.y

    if strategy.kind is StrategyKind.ATOM:
        return conflict_cost(instance.mode, k, B, strategy.params["x0"], y)

    if strategy.kind is StrategyKind.DISCRETE_PMF:
        pmf = strategy.params["pmf"]
        days = np.arange(1, len(pmf) + 1)
        aborted = days <= y
        abort_cost = float(np.sum(pmf[aborted] * (days[aborted] - 1.0 + B)))
        return abort_cost + y * float(np.sum(pmf[~aborted]))

    cut = min(y, strategy.support_max)
    # x <= cut <= y on the head, so every grace there aborts
    head = adaptive_simpson(
        lambda x: conflict_cost(instance.mode, k, B, x, y) * strategy.pdf(x), 0.0, cut
    )
    tail_mass = adaptive_simpson(strategy.pdf, cut, strategy.support_max)
    return head + (k - 1) * y * tail_mass


def batch_expected_costs(strategy: GracePeriodStrategy, ys) -> np.ndarray:
    """Expected costs for many adversary points in one pass.

    Numerically equivalent to mapping :func:`expected_cost` (cross-checked
    by the test suite) but computed from one cumulative-trapezoid sweep of
    the density, which keeps dense ratio scans fast.
    """
    ys = np.asarray(ys, dtype=float)
    k, B = strategy.spec.k, strategy.spec.B
    S = strategy.support_max

    if strategy.kind is StrategyKind.ATOM:
        return conflict_cost(strategy.spec.mode, k, B, strategy.params["x0"], ys)

    if strategy.kind is StrategyKind.DISCRETE_PMF:
        pmf = strategy.params["pmf"]
        days = np.arange(1, len(pmf) + 1, dtype=float)
        abort_prefix = np.concatenate([[0.0], np.cumsum(pmf * (days - 1.0 + B))])
        mass_prefix = np.concatenate([[0.0], np.cumsum(pmf)])
        idx = np.clip(np.floor(ys).astype(int), 0, len(pmf))
        return abort_prefix[idx] + ys * (1.0 - mass_prefix[idx])

    mesh = np.unique(np.concatenate([np.linspace(0.0, S, _PROFILE_MESH), np.clip(ys, 0.0, S)]))
    return mesh_expected_costs(strategy.spec.mode, k, B, mesh, strategy.pdf(mesh), ys)


def mesh_expected_costs(mode: ConflictMode, k: int, B: float, mesh, pvals, ys) -> np.ndarray:
    """Expected costs at ``ys`` of the density tabulated as ``pvals`` on ``mesh``.

    One cumulative-trapezoid sweep of the mass and of the abort-branch cost:
    graces up to ``y`` abort, the mass above ``y`` commits.  ``ys`` past the
    mesh end abort with the whole mass.
    """
    cum_mass = cumulative_trapezoid(mesh, pvals)
    cum_abort = cumulative_trapezoid(mesh, conflict_cost(mode, k, B, mesh, mesh) * pvals)
    idx = np.searchsorted(mesh, np.clip(ys, 0.0, mesh[-1]))
    return cum_abort[idx] + (k - 1) * ys * (cum_mass[-1] - cum_mass[idx])


def ratio_profile(strategy: GracePeriodStrategy, y_grid) -> list[tuple[float, float]]:
    """``(y, expected_cost/opt_cost)`` over a grid of point adversaries.

    Past the support the strategy aborts with certainty and the ratio is
    normalized by ``opt = B``.
    """
    ys = np.asarray(y_grid, dtype=float)
    if np.any(ys <= 0.0):
        raise ValueError("adversary grid must be strictly positive")
    costs = batch_expected_costs(strategy, ys)
    opts = np.minimum((strategy.spec.k - 1) * ys, strategy.spec.B)
    return list(zip(ys.tolist(), (costs / opts).tolist()))
