"""Grace-period strategies for transactional conflicts.

When two or more transactions clash, the resolver may grant the losing side
a grace period ``x`` before firing the abort.  A strategy is the rule that
picks ``x``: a deterministic threshold, or a probability density over
``[0, B/(k-1)]`` where ``B`` is the abort cost and ``k`` the number of
transactions in the conflict chain.  Two resolution modes exist:

* requestor wins  - the receiver of the coherence request is aborted after
  the grace period; an abort costs ``k*x + B`` against an offline optimum
  of ``min((k-1)*y, B)`` for hidden remaining time ``y``.
* requestor aborts - the requestors abort instead; an abort costs
  ``(k-1)*(x + B)``.

Closed forms implemented here (``q = (k/(k-1))**(k-1)``,
``eps = e**(1/(k-1)) - 1``, ``g = (k-1)*eps - 1``, ``u = x/B``):

====================  =====================================================
deterministic (RW)    atom at ``B/(k-1)``; worst-case ratio ``2 + 1/(k-1)``
RW unconstrained      ``(k-1)*(1+u)**(k-2) / (B*(q-1))``, the uniform ``1/B``
                      at k=2; ratio ``q/(q-1)`` (2 at k=2)
RW constrained k=2    ``ln((B+x)/B) / (B*(ln4 - 1))``;
                      ratio ``1 + mu/(2B(ln4-1))``
RW constrained k>=3   ``(k-1)*((1+u)**(k-2) - 1) / (B*(q-2))``;
                      ratio ``1 + mu*(k-2)/(2B(q-2))``
RA unconstrained      ``e**u / (B*eps)``; ratio ``(1+eps)/eps``
                      (``e/(e-1)`` at k=2)
RA constrained        ``(k-1)*(e**u - 1) / (B*g)``;
                      ratio ``1 + mu*(k-1)/(2B*g)``
RA discrete classic   day pmf ``((B-1)/B)**(B-i) / (B*(1-(1-1/B)**B))``,
                      integer days ``i`` in 1..B (k=2 only)
====================  =====================================================

Every closed-form density also has a closed-form partial first moment
(``GracePeriodStrategy.moment``), which makes expected costs exact; near
``x = 0`` the moments and the shifted-power cdf are summed as power series
with positive terms (or log1p's alternating series), as their closed forms
cancel there.  ``q`` and ``g`` are evaluated as ``exp((k-1)*log1p(1/(k-1)))``
and as a positive series for ``(expm1(t) - t)/t``, ``t = 1/(k-1)``, so they
hold to rounding at every ``k``.

Every law is one row of ``_FAMILIES``, with its kind, cdf, partial moment,
inverse and dual corner ``(lambda1, lambda2)``: the six densities, the atom
and the discrete classic's day pmf.  The constrained (mean-aware) densities
apply while the adversary mean stays below :func:`mean_threshold`, derived
from the two corners.  They are optimal among densities on ``[0, B/(k-1)]``
only, a cap that is part of the model: waiting longer does better against an
adversary of mean ``mu`` (a fine-grid linear program gives 1.089945 with
waits up to ``2B/(k-1)``, against the capped 1.129435, at requestor wins,
``k = 2``, ``B = 100``, ``mu = 10``).

Sampling inverts the cdf: in closed form where one exists, else (``rw_log``,
``rw_shifted_power``, ``ra_expm1``) from a table built on first use per
``(family, k)``, as in PINV (Derflinger, Hormann and Leydold 2010).  It maps
``w = sqrt(u)`` to ``x/B``, which does not depend on ``B``, by a polynomial
of degree 5 on each of 256 equal panels in ``w``, through the panel's
Chebyshev-Lobatto points, whose values Newton steps on ``sqrt(F)`` solve
once.  The density vanishes linearly at 0, so ``x/B`` is analytic in ``w``;
panel 0 has no constant term, so ``quantile(0) == 0`` and small draws keep
their relative accuracy.  A draw costs a Horner sum, no transcendental.

A note on a superficially similar form that is *not* a valid density and
is used as a negative control by the verification suite: the k=2
constrained requestor-wins density is ``ln((B+x)/B)``-shaped; the variant
``ln((B+x)/x)/(B(ln4-1))`` integrates to ``ln4/(ln4-1)`` on ``[0,B]`` at
every ``B`` (the integral of ``ln((B+x)/x)`` is ``2B ln2``), so it never
normalizes.

Strategies are immutable after construction and safe to share across
threads.  Sampling always takes an explicit per-caller stream.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .rng import Stream, Streams

LN4_MINUS_1 = 2.0 * math.log(2.0) - 1.0
# The discrete classic tabulates its pmf, cdf and partial moments over the days
# 1..B: 24 MB at this cap; larger abort costs are rejected rather than allocated.
DISCRETE_CLASSIC_MAX_B = 1e6

# Power series in v in [0, 1] whose j-th coefficient is at most 1/j!, cut
# after this many terms: the first term left out is below 1e-19 of the sum.
_SERIES_TERMS = 20


class ConflictMode(Enum):
    REQUESTOR_WINS = "requestor_wins"
    REQUESTOR_ABORTS = "requestor_aborts"


class Variant(Enum):
    DETERMINISTIC = "deterministic"
    RANDOMIZED_UNCONSTRAINED = "randomized_unconstrained"
    RANDOMIZED_CONSTRAINED = "randomized_constrained"
    DISCRETE_CLASSIC = "discrete_classic"


class StrategyKind(Enum):
    ATOM = "atom"
    CONTINUOUS_PDF = "continuous_pdf"
    DISCRETE_PMF = "discrete_pmf"


def check_chain_size(k) -> int:
    """``k`` as an int; a ValueError unless it is an integer in ``[2, 2**53)``."""
    if not (2 <= k < 2**53 and k == int(k)):
        raise ValueError(f"chain size k must be an integer >= 2 and below 2**53, got {k}")
    return int(k)


# The abort costs a spec accepts: at every accepted k, 2*B, mean_threshold, the
# corners, support_max, the densities and a conflict's cost stay finite there
# (past them 2*B overflows near 9e307, and a subnormal B gives infinite densities).
MIN_ABORT_COST, MAX_ABORT_COST = 1e-250, 1e250


def check_abort_cost(B) -> float:
    """``B`` as a float; a ValueError unless ``MIN_ABORT_COST <= B <= MAX_ABORT_COST``."""
    if not MIN_ABORT_COST <= B <= MAX_ABORT_COST:  # NaN and an int past the float range too
        raise ValueError(
            f"abort cost B must be positive and finite, in [{MIN_ABORT_COST:g}, "
            f"{MAX_ABORT_COST:g}], got {B}"
        )
    return float(B)


@dataclass(frozen=True)
class StrategySpec:
    """Resolution mode plus the parameters a strategy is built from.

    ``B`` is the abort cost, ``k >= 2`` the conflict chain size, and ``mu``
    the known mean of the adversarial remaining-time distribution (required
    by the constrained variant, ignored by the others).
    """

    mode: ConflictMode
    k: int
    B: float
    variant: Variant
    mu: float | None = None

    def __post_init__(self):
        if not isinstance(self.mode, ConflictMode):
            raise ValueError(f"mode must be a ConflictMode, got {self.mode!r}")
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")
        object.__setattr__(self, "k", check_chain_size(self.k))
        object.__setattr__(self, "B", check_abort_cost(self.B))
        if self.mu is not None:
            if not 0.0 <= self.mu <= sys.float_info.max:
                raise ValueError(f"mean mu must be nonnegative and finite, got {self.mu}")
            object.__setattr__(self, "mu", float(self.mu))
        if self.variant is Variant.RANDOMIZED_CONSTRAINED and self.mu is None:
            raise ValueError("randomized_constrained requires a known mean mu")
        if self.variant is Variant.DETERMINISTIC and self.mode is not ConflictMode.REQUESTOR_WINS:
            raise ValueError("the deterministic strategy is defined for requestor_wins only")
        if self.variant is Variant.DISCRETE_CLASSIC:
            if self.mode is not ConflictMode.REQUESTOR_ABORTS or self.k != 2:
                raise ValueError("discrete_classic is defined for requestor_aborts with k = 2")
            if not (self.B == int(self.B) and 1 <= self.B <= DISCRETE_CLASSIC_MAX_B):
                raise ValueError(
                    f"discrete_classic needs an integer abort cost 1 <= B <= "
                    f"{DISCRETE_CLASSIC_MAX_B:g} (it tabulates every day), got B = {self.B}"
                )

    @property
    def support_max(self) -> float:
        return self.B / (self.k - 1)


@dataclass(frozen=True)
class RatioReport:
    """Theoretical competitive ratio and the regime it was computed in."""

    theoretical_ratio: float
    regime: str  # "constrained" | "unconstrained"
    threshold_holds: bool


def _q(k: int) -> float:
    # (k/(k-1))**(k-1) without rounding k/(k-1) first
    return 2.0 if k == 2 else math.exp((k - 1) * math.log1p(1.0 / (k - 1)))


def _eps(k: int) -> float:
    # e**(1/(k-1)) - 1; the k = 2 value is pinned to the canonical e - 1
    return math.e - 1.0 if k == 2 else math.expm1(1.0 / (k - 1))


# (expm1(t) - t)/t = sum_{j>=0} t**(j+1) / (j+2)!
_EXPM1_RATIO = [1.0 / math.factorial(j + 2) for j in range(_SERIES_TERMS + 1)]


def _g(k: int) -> float:
    # (k-1)*eps - 1 = (expm1(t) - t)/t at t = 1/(k-1), summed as a series with
    # positive terms (the difference cancels as k grows)
    if k == 2:
        return math.e - 2.0
    t = 1.0 / (k - 1)
    return float(_series(_EXPM1_RATIO, np.float64(t)) * t)


def det_threshold(k: int, B: float) -> float:
    """Optimal deterministic grace period ``B/(k-1)``."""
    return check_abort_cost(B) / (check_chain_size(k) - 1)


def det_competitive_ratio(k: int) -> float:
    """Worst-case ratio ``2 + 1/(k-1)`` of the deterministic strategy."""
    return 2.0 + 1.0 / (check_chain_size(k) - 1)


def mean_threshold(mode: ConflictMode, k: int, B):
    """The adversary mean below which the mean-aware density does better: where
    its objective ``1 + lambda2*mu`` crosses the unconstrained ratio ``lambda1``
    (the switch point of constrained ski rental), elementwise for an array ``B``.

    ``(lambda1_unc - 1)/lambda2_con`` is ``2B(ln4-1)`` at RW ``k = 2``,
    ``2B(q-2)/((k-2)(q-1))`` at RW ``k >= 3`` and ``2Bg/((k-1)eps)`` at RA.
    """
    unconstrained, _ = lagrange_corner(mode, k, B, False)
    one, slope = lagrange_corner(mode, k, B, True)
    return (unconstrained - one) / slope


def threshold_condition(spec: StrategySpec) -> bool:
    """True iff the mean-aware density is chosen for ``(mode, k, B, mu)``:
    ``mu`` below :func:`mean_threshold`."""
    if spec.mu is None:
        raise ValueError("threshold_condition requires spec.mu")
    return spec.mu < mean_threshold(spec.mode, spec.k, spec.B)


def lagrange_corner(mode: ConflictMode, k: int, B, constrained: bool) -> tuple[float, float]:
    """Dual corner point ``(lambda1, lambda2)`` for the given regime.

    The unconstrained corner has ``lambda2 = 0``; the constrained corner is the
    binding point where the density vanishes at ``x = 0``.  The cost identity
    ``Cost(p, y)/((k-1)*y) = lambda1 + lambda2*y`` holds for the matching
    density on the whole support; an array ``B`` of checked costs gives each corner.
    """
    k, B = check_chain_size(k), B if isinstance(B, np.ndarray) else check_abort_cost(B)
    family = _RESOLVE[mode, constrained][k > 2]
    return _FAMILIES[family].corner(k, B, _params(family, k))


class _Family(NamedTuple):
    """One grace-period law, as functions of ``u = x/unit`` on the support:
    ``unit`` is ``B`` for a density and 1 for the atom and the day pmf.

    ``pdf`` is the density in ``x`` (the pmf at whole days; the atom has
    none) and ``cdf`` its distribution function, both called as ``(u, k, B,
    p)``; ``moment`` is the partial first moment ``m(u)``, with ``E[grace;
    grace <= x] = unit*m(x/unit)``, and ``corner(k, B, p)`` the dual corner
    ``(lambda1, lambda2)`` of :func:`lagrange_corner` (``lambda1`` the
    worst-case ratio of the atom and the day pmf).  ``inverse`` maps
    uniforms to grace periods as ``(u, k, B, p, out)``, writing them into
    ``out``, a float array of ``u``'s shape that may be ``u``; the atom takes
    no draws and has none.  ``params(k)`` precomputes a density's constants,
    which :func:`_params` caches.
    """

    pdf: Callable | None
    cdf: Callable
    moment: Callable
    corner: Callable
    inverse: Callable | None
    params: Callable = lambda k: {}
    mean_aware: bool = False  # built from the known mean mu (constrained)
    kind: StrategyKind = StrategyKind.CONTINUOUS_PDF


# below this u the rw_log cdf and moment and the ra_expm1 cdf, whose closed
# forms cancel, are summed as series (log1p's alternating one for rw_log)
_SMALL_U = 0.125


def _series(coefs, v, first=0):
    """``sum(c * v**j for j, c in enumerate(coefs) if j >= first)`` by Horner's rule."""
    acc = np.full_like(v, coefs[-1])
    for c in reversed(coefs[first:-1]):
        acc *= v
        acc += c
    return acc * v**first if first else acc


def _binomials(m: int, n: int) -> list[float]:
    """``C(m, j) / n**j`` for ``j`` up to ``min(m, _SERIES_TERMS)``: at most
    ``1/j!`` for ``m <= n``, so a series in ``v = n*u`` of the kind above."""
    out = [1.0]
    for j in range(1, min(m, _SERIES_TERMS) + 1):
        out.append(out[-1] * (m - j + 1) / (n * j))
    return out


def _power_params(k: int) -> dict:
    # int_0^u t (1+t)**(k-2) dt = u**2 * sum_j C(k-2, j) u**j / (j+2), and
    # (1+u)**(k-1) - 1 - (k-1)u = sum_{j>=2} C(k-1, j) u**j: positive terms
    # only, so no cancellation at small u; tuples, as _params shares them
    n = k - 1
    return {
        "q": _q(k),
        "moment": tuple(c / (j + 2) for j, c in enumerate(_binomials(n - 1, n))),
        "binomials": tuple(_binomials(n, n)),
    }


# int_0^u t e**t dt = u**2 * sum_j u**j / (j! (j+2))
_EXP_MOMENT = [1.0 / (math.factorial(j) * (j + 2)) for j in range(_SERIES_TERMS + 1)]
# int_0^u t log1p(t) dt = u**2 * sum_{j>=1} (-u)**j / (-j (j+2))
_LOG_MOMENT = [0.0] + [(-1.0) ** (j + 1) / (j * (j + 2)) for j in range(1, _SERIES_TERMS + 1)]
# (1+u) log1p(u) - u = u**2 * sum_j (-u)**j / ((j+1) (j+2))
_LOG_CDF = [(-1.0) ** j / ((j + 1) * (j + 2)) for j in range(_SERIES_TERMS + 1)]


def _below_cut(closed, u, coefs, first=0):
    """``closed`` with its entries at ``u < _SMALL_U`` set, in place, to ``u**2 * series``."""
    small = u < _SMALL_U
    if small.any():
        v = u[small]
        closed[small] = v * v * _series(coefs, v, first)
    return closed


def _rw_log_moment(u):
    closed = 0.5 * (u * u - 1.0) * np.log1p(u) - 0.25 * u * u + 0.5 * u
    return _below_cut(closed, u, _LOG_MOMENT, 1) / LN4_MINUS_1


# The inverse cdf of a family without a closed form, tabulated per k in w =
# sqrt(u) as the module docstring says: to under 2e-15 absolute in u.
_PANELS = 256
_DEGREE = 5
_LOBATTO = np.array([0.5 - 0.5 * math.cos(math.pi * i / _DEGREE) for i in range(_DEGREE + 1)])


@lru_cache(maxsize=64)
def _inverse_table(family: str, k: int) -> np.ndarray:
    """Coefficients ``c`` of the inverse cdf on panel ``j``: ``x/B = sum_i
    c[i, j] * s**i``, where ``w = sqrt(u) = (j + s)/_PANELS``.

    Newton steps on ``sqrt(F(t)) = w``, nearly linear in ``t = x/B``, solve
    the node values from the linear guess in three steps; eight leave
    margin (``dF/dt`` is the density at ``B = 1``; at ``t = 0`` both vanish
    and no step is taken).  Their divided differences turn into powers of
    ``s``; the node ``s = 0`` comes first, so ``c[0, 0] = 0`` exactly.
    """
    row = _FAMILIES[family]
    p, top = _params(family, k), 1.0 / (k - 1)
    w = (np.arange(_PANELS)[:, None] + _LOBATTO) / _PANELS
    dd = w * top
    for _ in range(8):
        root_f = np.sqrt(row.cdf(dd, k, 1.0, p))
        step = np.zeros_like(dd)
        np.divide(2.0 * root_f * (root_f - w), row.pdf(dd, k, 1.0, p), out=step, where=root_f > 0.0)
        dd = np.clip(dd - step, 0.0, top)
    for m in range(1, _DEGREE + 1):
        dd[:, m:] = (dd[:, m:] - dd[:, m - 1:-1]) / (_LOBATTO[m:] - _LOBATTO[:-m])
    c = np.zeros((_DEGREE + 1, _PANELS))
    for m in range(_DEGREE, -1, -1):  # c <- c * (s - s_m) + dd_m
        c[1:], c[0] = c[:-1] - _LOBATTO[m] * c[1:], dd[:, m] - _LOBATTO[m] * c[0]
    c.flags.writeable = False  # shared by every caller of the cache
    return c


def _tabulated_inverse(family: str, u, k, B, p, out):
    """Grace periods for uniforms ``u``, in ``out``: a Horner sum on the panel
    of each ``sqrt(u)``, scaled by ``B`` and kept on the support."""
    c = _inverse_table(family, k)
    s = np.sqrt(u, out=out)
    s *= _PANELS
    jf = np.floor(s)
    np.minimum(jf, _PANELS - 1, out=jf)  # u = 1 ends the last panel
    s -= jf
    j = jf.astype(np.intp)
    # j is in range ("clip" is numpy's faster take), and jf's block is free for x
    x = c[-1].take(j, mode="clip", out=jf)
    term = np.empty_like(x)
    for row in c[-2:0:-1]:
        x *= s
        x += row.take(j, mode="clip", out=term)
    s *= x  # the last Horner step lands in out
    s += c[0].take(j, mode="clip", out=term)
    s *= B
    return np.clip(s, 0.0, B / (k - 1), out=s)


def _days(x, prefix):
    # prefix at the last day up to x on [0, B], 0 before day 1; a NaN x stays NaN
    idx = np.floor(np.nan_to_num(x)).astype(int) - 1
    return np.where(np.isnan(x), x, np.where(idx < 0, 0.0, prefix[idx]))


def _rw_power_inverse(u, k, B, p, out):
    x = np.log1p(np.multiply(u, p["q"] - 1.0, out=out), out=out)
    x /= k - 1
    np.expm1(x, out=x)
    x *= B
    return x


_FAMILIES = {
    "uniform": _Family(
        pdf=lambda u, k, B, p: np.full_like(u, (k - 1) / B),
        cdf=lambda u, k, B, p: (k - 1) * u,
        moment=lambda u, k, B, p: 0.5 * (k - 1) * u * u,
        corner=lambda k, B, p: (2.0, 0.0),  # equalizing at k = 2 only
        inverse=lambda u, k, B, p, out: np.multiply(u, B / (k - 1), out=out),
    ),
    "rw_log": _Family(
        pdf=lambda u, k, B, p: np.log1p(u) / (B * LN4_MINUS_1),
        cdf=lambda u, k, B, p: _below_cut((1.0 + u) * np.log1p(u) - u, u, _LOG_CDF) / LN4_MINUS_1,
        moment=lambda u, k, B, p: _rw_log_moment(u),
        corner=lambda k, B, p: (1.0, 1.0 / (2.0 * B * LN4_MINUS_1)),
        inverse=partial(_tabulated_inverse, "rw_log"),
        mean_aware=True,
    ),
    "rw_shifted_power": _Family(
        pdf=lambda u, k, B, p: (
            (k - 1) * np.expm1((k - 2) * np.log1p(u)) / (B * (p["q"] - 2.0))
        ),
        cdf=lambda u, k, B, p: _series(p["binomials"], (k - 1) * u, 2) / (p["q"] - 2.0),
        moment=lambda u, k, B, p: (
            (k - 1) * u * u * _series(p["moment"], (k - 1) * u, 1) / (p["q"] - 2.0)
        ),
        corner=lambda k, B, p: (1.0, (k - 2) / (2.0 * B * (p["q"] - 2.0))),
        inverse=partial(_tabulated_inverse, "rw_shifted_power"),
        params=_power_params,
        mean_aware=True,
    ),
    "rw_power": _Family(
        pdf=lambda u, k, B, p: (k - 1) * np.exp((k - 2) * np.log1p(u)) / (B * (p["q"] - 1.0)),
        cdf=lambda u, k, B, p: np.expm1((k - 1) * np.log1p(u)) / (p["q"] - 1.0),
        moment=lambda u, k, B, p: (
            (k - 1) * u * u * _series(p["moment"], (k - 1) * u) / (p["q"] - 1.0)
        ),
        corner=lambda k, B, p: (p["q"] / (p["q"] - 1.0), 0.0),
        inverse=_rw_power_inverse,
        params=_power_params,
    ),
    "ra_exp": _Family(
        pdf=lambda u, k, B, p: np.exp(u) / (B * p["eps"]),
        cdf=lambda u, k, B, p: np.expm1(u) / p["eps"],
        moment=lambda u, k, B, p: u * u * _series(_EXP_MOMENT, u) / p["eps"],
        corner=lambda k, B, p: ((1.0 + p["eps"]) / p["eps"], 0.0),
        inverse=lambda u, k, B, p, out: np.multiply(
            np.log1p(np.multiply(u, p["eps"], out=out), out=out), B, out=out
        ),
        params=lambda k: {"eps": _eps(k)},
    ),
    "ra_expm1": _Family(
        pdf=lambda u, k, B, p: (k - 1) * np.expm1(u) / (B * p["g"]),
        # expm1(u) - u = u**2 * sum_j u**j / (j+2)!
        cdf=lambda u, k, B, p: (k - 1) * _below_cut(np.expm1(u) - u, u, _EXPM1_RATIO) / p["g"],
        moment=lambda u, k, B, p: (k - 1) * u * u * _series(_EXP_MOMENT, u, 1) / p["g"],
        corner=lambda k, B, p: (1.0, (k - 1) / (2.0 * B * p["g"])),
        inverse=partial(_tabulated_inverse, "ra_expm1"),
        params=lambda k: {"g": _g(k)},
        mean_aware=True,
    ),
    "atom": _Family(  # a step at the point support_max = B/(k-1); NaN stays NaN
        pdf=None,
        cdf=lambda u, k, B, p: np.heaviside(u - B / (k - 1), 1.0),
        moment=lambda u, k, B, p: np.heaviside(u - B / (k - 1), 1.0) * (B / (k - 1)),
        corner=lambda k, B, p: (det_competitive_ratio(k), 0.0),
        inverse=None,
        kind=StrategyKind.ATOM,
    ),
    "discrete_classic": _Family(
        # u = x is on [0, B]: day i in 1..B has pmf[i - 1]
        pdf=lambda u, k, B, p: np.where(
            (u >= 1.0) & (u == np.round(u)), p["pmf"][np.maximum(u, 1.0).astype(int) - 1], 0.0
        ),
        cdf=lambda u, k, B, p: _days(u, p["cumulative"]),
        moment=lambda u, k, B, p: _days(u, p["moments"]),
        # the day-granular optimum; e/(e-1) is its limit as B grows
        corner=lambda k, B, p: (1.0 / (1.0 - (1.0 - 1.0 / B) ** B), 0.0),
        inverse=lambda u, k, B, p, out: np.add(
            np.searchsorted(p["cumulative"], u, side="right"), 1.0, out=out
        ),
        kind=StrategyKind.DISCRETE_PMF,
    ),
}


@lru_cache(maxsize=1024)
def _params(family: str, k: int) -> Mapping:
    """``_FAMILIES[family].params(k)``, built once per ``(family, k)`` and
    read-only, as every strategy, corner and inverse table of that family and
    chain size shares it."""
    return MappingProxyType(_FAMILIES[family].params(k))


# the row a randomized spec resolves to, by (mode, mean-aware), at k = 2 and
# at k >= 3
_RESOLVE = {
    (ConflictMode.REQUESTOR_WINS, False): ("uniform", "rw_power"),
    (ConflictMode.REQUESTOR_WINS, True): ("rw_log", "rw_shifted_power"),
    (ConflictMode.REQUESTOR_ABORTS, False): ("ra_exp", "ra_exp"),
    (ConflictMode.REQUESTOR_ABORTS, True): ("ra_expm1", "ra_expm1"),
}


@dataclass(frozen=True)
class GracePeriodStrategy:
    """A realized distribution over grace periods.

    ``family`` selects its row of ``_FAMILIES``; ``params`` carries the
    row's precomputed constants, for a density the read-only mapping
    :func:`_params` shares per ``(family, k)``, for the day pmf its tables.
    ``kind``, the row's, distinguishes atoms (the point ``support_max``),
    continuous densities on ``[0, support_max]``, and the integer-day pmf of
    the discrete classic.
    """

    spec: StrategySpec
    family: str
    params: Mapping = field(default_factory=dict)

    @property
    def kind(self) -> StrategyKind:
        return _FAMILIES[self.family].kind

    @property
    def support_max(self) -> float:
        return self.spec.support_max

    @property
    def abort_cost(self) -> float:
        """The abort cost :func:`costmodel.conflict_cost` charges a grace drawn
        here: ``spec.B``, or ``B - 1`` for the discrete classic, whose abort on
        day ``i`` costs ``i - 1 + B``."""
        return self.spec.B - 1.0 if self.kind is StrategyKind.DISCRETE_PMF else self.spec.B

    @property
    def mean_aware(self) -> bool:
        """True for the constrained densities built from the known mean."""
        return _FAMILIES[self.family].mean_aware

    @property
    def _unit(self) -> float:
        """What the row's functions divide ``x`` by: ``B`` for a density, else 1."""
        return self.spec.B if self.kind is StrategyKind.CONTINUOUS_PDF else 1.0

    # -- evaluation -----------------------------------------------------

    def pdf(self, x):
        """Density at ``x`` (pmf value at integer days for the discrete kind)."""
        row = _FAMILIES[self.family]
        if row.pdf is None:
            raise ValueError(f"{self.family} strategies have no density")
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        inside = (xs >= 0.0) & (xs <= self.support_max)
        u = np.where(inside, xs, 0.0) / self._unit
        vals = np.where(inside, row.pdf(u, self.spec.k, self.spec.B, self.params), 0.0)
        return float(vals[0]) if scalar else vals

    def cdf(self, x):
        """``P(grace <= x)``: a step at an atom's point, and for the day pmf the
        mass of the days up to ``x``.  A NaN ``x`` stays NaN."""
        return self._cumulative(x, _FAMILIES[self.family].cdf)

    def moment(self, x):
        """Partial first moment ``E[grace; grace <= x]``, ``integral_0^x t pdf(t) dt``
        for a density; the mean past the support.  A NaN ``x`` stays NaN."""
        return self._unit * self._cumulative(x, _FAMILIES[self.family].moment)

    def _cumulative(self, x, law):
        """``law(x/unit)`` at ``x`` clamped to the support, so 0 below it (every
        row's cdf and moment are 0 at 0) and the total past it."""
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        clamped = np.clip(np.atleast_1d(xs), 0.0, self.support_max)
        vals = law(clamped / self._unit, self.spec.k, self.spec.B, self.params)
        return float(vals[0]) if scalar else vals

    def exact_pmf(self, i: int) -> Fraction:
        """Rational pmf value for the discrete classic (exact arithmetic)."""
        if self.family != "discrete_classic":
            raise ValueError("exact_pmf is only defined for the discrete classic")
        B = int(self.spec.B)
        if not 1 <= i <= B:
            return Fraction(0)
        r = Fraction(B - 1, B)
        z = 1 - r ** B
        return r ** (B - i) / (B * z)

    # -- sampling -------------------------------------------------------

    def sample(self, stream: Stream) -> float:
        """One grace period, ``sample_batch(stream, 1)[0]``: one draw, none at an atom."""
        return float(self.sample_batch(stream, 1)[0])

    def sample_batch(self, stream: Stream | Streams, n: int) -> np.ndarray:
        """``n`` grace periods from each stream, shape ``(n,)`` or ``(n, lanes)``;
        atoms repeat their point, shape ``(n,)``, without consuming draws."""
        if _FAMILIES[self.family].inverse is None:
            return np.full(n, self.support_max)
        u = stream.uniform_batch(n)
        return self.quantile(u, out=u)

    def quantile(self, u: np.ndarray, out: np.ndarray | None = None, B=None) -> np.ndarray:
        """Grace periods for uniforms ``u`` in [0, 1): the inverse CDF, written
        into ``out`` (a new array by default; it may be ``u`` itself).

        Every sampler maps its draws through this one function, so a draw
        gives the same bits whichever sampler made it.  An atom takes no
        draws and has none.  A density scales by ``B``: an array ``B`` maps each draw.
        """
        inverse = _FAMILIES[self.family].inverse
        if inverse is None:
            raise ValueError(f"the {self.family} strategy takes no draws")
        if out is None:
            out = np.empty(np.shape(u))
        return inverse(u, self.spec.k, self.spec.B if B is None else B, self.params, out)


def stacked_pdf(strategies) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """One integrand for many continuous densities: ``f(x, which)`` is
    ``strategies[which[j]].pdf(x[j])`` at each node ``x[j]`` in its density's
    support ``[0, support_max]``, bit for bit.

    Each family's row is evaluated once per call, on all of its nodes, with
    every member's ``k``, ``B`` and scalar params gathered per node.
    """
    families = list(dict.fromkeys(s.family for s in strategies))
    if any(_FAMILIES[name].kind is not StrategyKind.CONTINUOUS_PDF for name in families):
        raise ValueError("stacked_pdf takes continuous densities only")
    code = np.array([families.index(s.family) for s in strategies])
    k = np.array([s.spec.k for s in strategies])
    B = np.array([s.spec.B for s in strategies])
    # the scalar params (q, eps, g); the pdf rows read no series coefficients
    scalars = dict.fromkeys(n for s in strategies for n, v in s.params.items() if type(v) is float)
    params = {n: np.array([s.params.get(n, np.nan) for s in strategies]) for n in scalars}

    def f(x, which):
        u = x / B[which]
        out = np.empty_like(u)
        member = code[which]
        for g, name in enumerate(families):
            nodes = (member == g).nonzero()[0]
            at = which[nodes]
            p = {key: v[at] for key, v in params.items()}
            out[nodes] = _FAMILIES[name].pdf(u[nodes], k[at], B[at], p)
        return out

    return f


def _discrete_classic_pmf(B: int) -> dict:
    """The discrete classic's params: its pmf on the days 1..B and two prefix sums."""
    i = np.arange(1, B + 1, dtype=float)
    pmf = ((B - 1.0) / B) ** (B - i) / (B * (1.0 - (1.0 - 1.0 / B) ** B))
    cumulative = np.cumsum(pmf)
    cumulative[-1] = 1.0
    return {"pmf": pmf, "cumulative": cumulative, "moments": np.cumsum(i * pmf)}


def _resolve(spec: StrategySpec) -> str:
    """The row of ``_FAMILIES`` the optimal strategy for ``spec`` reads.  The
    unconstrained requestor-wins density is the uniform one at ``k = 2`` and the
    ``(1+x/B)**(k-2)`` power density above; a constrained spec whose threshold
    condition fails falls back to the unconstrained density."""
    if spec.variant is Variant.DETERMINISTIC:
        return "atom"  # the point support_max = B/(k-1)
    if spec.variant is Variant.DISCRETE_CLASSIC:
        return "discrete_classic"
    mean_aware = spec.variant is Variant.RANDOMIZED_CONSTRAINED and threshold_condition(spec)
    return _RESOLVE[spec.mode, mean_aware][spec.k > 2]


def make_strategy(spec: StrategySpec) -> GracePeriodStrategy:
    """The optimal strategy for ``spec``: the row :func:`_resolve` names, and its params."""
    family = _resolve(spec)
    if family == "discrete_classic":  # its tables are built per B, not cached per k
        return GracePeriodStrategy(spec, family, _discrete_classic_pmf(int(spec.B)))
    return GracePeriodStrategy(spec, family, _params(family, spec.k))


def competitive_ratio(spec: StrategySpec) -> RatioReport:
    """Theoretical worst-case ratio for the regime ``spec`` resolves to.

    Constrained ratios are the dual objective ``lambda1 + lambda2*mu`` at
    the binding corner; a zero mean therefore degenerates to ratio 1.  They
    are optimal among densities on ``[0, B/(k-1)]`` only: against an
    adversary of mean ``mu``, longer waits can do better.  The unconstrained
    randomized ratios meet :func:`graceperiod.oracle.yao_lower_bound`, a
    bound on every strategy.
    """
    family = _resolve(spec)
    row = _FAMILIES[family]  # no corner reads the day pmf's tables, which are not built
    lam1, lam2 = row.corner(spec.k, spec.B, _params(family, spec.k))
    if row.mean_aware:
        return RatioReport(lam1 + lam2 * spec.mu, "constrained", True)
    # the atom and the day pmf have no mean-aware form to switch to
    holds = row.kind is StrategyKind.CONTINUOUS_PDF and spec.mu is not None
    return RatioReport(lam1, "unconstrained", holds and threshold_condition(spec))
