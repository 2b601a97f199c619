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
RW unconstrained      uniform ``(k-1)/B`` on ``[0, B/(k-1)]``; ratio 2
RW constrained k=2    ``ln((B+x)/B) / (B*(ln4 - 1))``;
                      ratio ``1 + mu/(2B(ln4-1))``
RW constrained k>=3   ``(k-1)*((1+u)**(k-2) - 1) / (B*(q-2))``;
                      ratio ``1 + mu*(k-2)/(2B(q-2))``
RW fallback k>=3      ``(k-1)*(1+u)**(k-2) / (B*(q-1))``; ratio ``q/(q-1)``
RA unconstrained      ``e**u / (B*eps)``; ratio ``(1+eps)/eps``
                      (``e/(e-1)`` at k=2)
RA constrained        ``(k-1)*(e**u - 1) / (B*g)``;
                      ratio ``1 + mu*(k-1)/(2B*g)``
RA discrete classic   day pmf ``((B-1)/B)**(B-i) / (B*(1-(1-1/B)**B))``,
                      integer days ``i`` in 1..B (k=2 only)
====================  =====================================================

A note on two superficially similar forms that are *not* valid densities
and are used as negative controls by the verification suite: the k=2
constrained requestor-wins density is ``ln((B+x)/B)``-shaped; the variant
``ln((B+x)/x)/(B(ln4-1))`` integrates to ``1 + ln(B)/(ln4-1)`` on ``[0,B]``
and only normalizes at ``B = 1``.

Strategies are immutable after construction and safe to share across
threads.  Sampling always takes an explicit per-caller stream.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .quadrature import cumulative_trapezoid
from .rng import Stream

LN4_MINUS_1 = 2.0 * math.log(2.0) - 1.0

_NEWTON_STEPS = 4  # three suffice; one more for margin


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
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"chain size k must be an integer >= 2, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if not (self.B > 0.0 and math.isfinite(self.B)):
            raise ValueError(f"abort cost B must be positive and finite, got {self.B}")
        object.__setattr__(self, "B", float(self.B))
        if self.mu is not None:
            if not (self.mu >= 0.0 and math.isfinite(self.mu)):
                raise ValueError(f"mean mu must be nonnegative, got {self.mu}")
            object.__setattr__(self, "mu", float(self.mu))
        if self.variant is Variant.RANDOMIZED_CONSTRAINED and self.mu is None:
            raise ValueError("randomized_constrained requires a known mean mu")
        if self.variant is Variant.DETERMINISTIC and self.mode is not ConflictMode.REQUESTOR_WINS:
            raise ValueError("the deterministic strategy is defined for requestor_wins only")
        if self.variant is Variant.DISCRETE_CLASSIC:
            if self.mode is not ConflictMode.REQUESTOR_ABORTS or self.k != 2:
                raise ValueError("discrete_classic is defined for requestor_aborts with k = 2")
            if self.B != int(self.B) or self.B < 1:
                raise ValueError("discrete_classic needs an integer abort cost B >= 1")

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
    return (k / (k - 1.0)) ** (k - 1)


def _eps(k: int) -> float:
    # e**(1/(k-1)) - 1; the k = 2 value is pinned to the canonical e - 1
    return math.e - 1.0 if k == 2 else math.expm1(1.0 / (k - 1))


def _g(k: int) -> float:
    return math.e - 2.0 if k == 2 else (k - 1) * _eps(k) - 1.0


def det_threshold(k: int, B: float) -> float:
    """Optimal deterministic grace period ``B/(k-1)``."""
    if int(k) != k or k < 2:
        raise ValueError(f"chain size k must be an integer >= 2, got {k}")
    if not (B > 0.0 and math.isfinite(B)):
        raise ValueError(f"abort cost B must be positive and finite, got {B}")
    return B / (k - 1)


def det_competitive_ratio(k: int) -> float:
    """Worst-case ratio ``2 + 1/(k-1)`` of the deterministic strategy."""
    if int(k) != k or k < 2:
        raise ValueError(f"chain size k must be an integer >= 2, got {k}")
    return 2.0 + 1.0 / (k - 1)


def threshold_condition(spec: StrategySpec, raw_ra_inequality: bool = False) -> bool:
    """True iff the mean-aware density is optimal for ``(mode, k, B, mu)``.

    The requestor-aborts test for ``k >= 3`` is stated in a simplified form
    valid for ``B > 1`` (``mu/(B-1) < 2*g``); set ``raw_ra_inequality`` to
    evaluate the unsimplified inequality ``(mu + 2*g)/B < 2*g`` instead. The
    raw form is also used when ``B <= 1``, where the simplification is
    meaningless.
    """
    if spec.mu is None:
        raise ValueError("threshold_condition requires spec.mu")
    mu, B, k = spec.mu, spec.B, spec.k
    if spec.mode is ConflictMode.REQUESTOR_WINS:
        if k == 2:
            return mu / B < 2.0 * LN4_MINUS_1
        q = _q(k)
        return mu / B <= (q - 2.0) / ((k - 2) * (q - 1.0))
    if k == 2:
        return mu / B < 2.0 * (math.e - 2.0) / (math.e - 1.0)
    g = _g(k)
    if raw_ra_inequality or B <= 1.0:
        return (mu + 2.0 * g) / B < 2.0 * g
    return mu / (B - 1.0) < 2.0 * g


def lagrange_corner(mode: ConflictMode, k: int, B: float, constrained: bool) -> tuple[float, float]:
    """Dual corner point ``(lambda1, lambda2)`` for the given regime.

    The unconstrained corner has ``lambda2 = 0``; the constrained corner is
    the binding point where the density vanishes at ``x = 0``.  The cost
    identity ``Cost(p, y)/((k-1)*y) = lambda1 + lambda2*y`` holds for the
    matching density on the whole support.
    """
    if mode is ConflictMode.REQUESTOR_WINS:
        if k == 2:
            return (1.0, 1.0 / (2.0 * B * LN4_MINUS_1)) if constrained else (2.0, 0.0)
        q = _q(k)
        if constrained:
            return 1.0, (k - 2) / (2.0 * B * (q - 2.0))
        return q / (q - 1.0), 0.0
    eps = _eps(k)
    if constrained:
        return 1.0, (k - 1) / (2.0 * B * _g(k))
    return (1.0 + eps) / eps, 0.0


class _Family(NamedTuple):
    """One closed-form density family, as functions of ``u = x/B``.

    ``pdf`` is the density in ``x`` and ``cdf`` its distribution function;
    ``inverse`` maps uniforms to grace periods in closed form, and families
    without one are inverted by Newton steps on the cdf.  ``params(k)``
    precomputes the family's constants.
    """

    pdf: Callable
    cdf: Callable
    inverse: Callable | None = None
    params: Callable = lambda k: {}
    mean_aware: bool = False  # built from the known mean mu (constrained)


def _custom_pdf(u, k, B, p):
    f = p["pdf"]
    return np.asarray([f(v) for v in np.atleast_1d(u * B)], dtype=float)


_FAMILIES = {
    "uniform": _Family(
        pdf=lambda u, k, B, p: np.full_like(u, (k - 1) / B),
        cdf=lambda u, k, B, p: (k - 1) * u,
        inverse=lambda u, k, B, p: B / (k - 1) * u,
    ),
    "rw_log": _Family(
        pdf=lambda u, k, B, p: np.log1p(u) / (B * LN4_MINUS_1),
        cdf=lambda u, k, B, p: ((1.0 + u) * np.log1p(u) - u) / LN4_MINUS_1,
        mean_aware=True,
    ),
    "rw_shifted_power": _Family(
        pdf=lambda u, k, B, p: (k - 1) * ((1.0 + u) ** (k - 2) - 1.0) / (B * (p["q"] - 2.0)),
        cdf=lambda u, k, B, p: ((1.0 + u) ** (k - 1) - 1.0 - (k - 1) * u) / (p["q"] - 2.0),
        params=lambda k: {"q": _q(k)},
        mean_aware=True,
    ),
    "rw_power": _Family(
        pdf=lambda u, k, B, p: (k - 1) * (1.0 + u) ** (k - 2) / (B * (p["q"] - 1.0)),
        cdf=lambda u, k, B, p: ((1.0 + u) ** (k - 1) - 1.0) / (p["q"] - 1.0),
        inverse=lambda u, k, B, p: B * ((1.0 + u * (p["q"] - 1.0)) ** (1.0 / (k - 1)) - 1.0),
        params=lambda k: {"q": _q(k)},
    ),
    "ra_exp": _Family(
        pdf=lambda u, k, B, p: np.exp(u) / (B * p["eps"]),
        cdf=lambda u, k, B, p: np.expm1(u) / p["eps"],
        inverse=lambda u, k, B, p: B * np.log1p(u * p["eps"]),
        params=lambda k: {"eps": _eps(k)},
    ),
    "ra_expm1": _Family(
        pdf=lambda u, k, B, p: (k - 1) * np.expm1(u) / (B * p["g"]),
        cdf=lambda u, k, B, p: (k - 1) * (np.expm1(u) - u) / p["g"],
        params=lambda k: {"g": _g(k)},
        mean_aware=True,
    ),
    # a tabulated density (custom_continuous): piecewise-linear CDF table,
    # inverted exactly
    "custom": _Family(
        pdf=_custom_pdf,
        cdf=lambda u, k, B, p: np.interp(u * B, p["mesh"], p["cum"]),
        inverse=lambda u, k, B, p: np.interp(u, p["cum"], p["mesh"]),
    ),
}


@dataclass(frozen=True)
class GracePeriodStrategy:
    """A realized distribution over grace periods.

    ``family`` selects the closed form (a row of ``_FAMILIES`` for the
    continuous kind); ``params`` carries its precomputed constants.
    ``kind`` distinguishes atoms, continuous densities on
    ``[0, support_max]``, and the integer-day pmf of the discrete classic.
    """

    spec: StrategySpec
    kind: StrategyKind
    family: str
    support_max: float
    params: dict = field(default_factory=dict)

    @property
    def mean_aware(self) -> bool:
        """True for the constrained densities built from the known mean."""
        row = _FAMILIES.get(self.family)
        return row is not None and row.mean_aware

    # -- evaluation -----------------------------------------------------

    def pdf(self, x):
        """Density at ``x`` (pmf value at integer days for the discrete kind)."""
        if self.kind is StrategyKind.ATOM:
            raise ValueError("atom strategies have no density")
        if self.kind is StrategyKind.DISCRETE_PMF:
            return self._pmf(x)
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        inside = (xs >= 0.0) & (xs <= self.support_max)
        u = np.where(inside, xs, 0.0) / self.spec.B
        vals = np.where(inside, self._pdf_inside(u), 0.0)
        return float(vals[0]) if scalar else vals

    def cdf(self, x):
        if self.kind is StrategyKind.ATOM:
            raise ValueError("atom strategies have no distribution function")
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        clamped = np.clip(xs, 0.0, self.support_max)
        if self.kind is StrategyKind.DISCRETE_PMF:
            cum = self.params["cumulative"]
            idx = np.floor(clamped).astype(int) - 1  # P(day <= x) = cum[floor(x) - 1]
            vals = np.where(xs < 1.0, 0.0, cum[np.clip(idx, 0, len(cum) - 1)])
        else:
            vals = self._cdf_inside(clamped / self.spec.B)
            vals = np.where(xs < 0.0, 0.0, vals)
        return float(vals[0]) if scalar else vals

    def _pdf_inside(self, u):
        return _FAMILIES[self.family].pdf(u, self.spec.k, self.spec.B, self.params)

    def _cdf_inside(self, u):
        return _FAMILIES[self.family].cdf(u, self.spec.k, self.spec.B, self.params)

    def _pmf(self, i):
        arr = np.asarray(i, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        pmf = self.params["pmf"]
        B = len(pmf)
        integral = arr == np.round(arr)
        idx = np.where(integral, arr, 0.0).astype(int)
        ok = integral & (idx >= 1) & (idx <= B)
        vals = np.where(ok, pmf[np.clip(idx - 1, 0, B - 1)], 0.0)
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
        """One grace period drawn from this strategy.

        Atoms return their point without consuming the stream; all other
        strategies consume exactly one draw.
        """
        if self.kind is StrategyKind.ATOM:
            return self.params["x0"]
        return float(self.quantile(np.array([stream.uniform()]))[0])

    def sample_batch(self, stream: Stream, n: int) -> np.ndarray:
        """``n`` grace periods; atoms repeat ``x0`` without consuming draws."""
        if self.kind is StrategyKind.ATOM:
            return np.full(n, self.params["x0"])
        return self.quantile(stream.uniform_batch(n))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Grace periods for uniforms ``u`` in [0, 1): the inverse CDF.

        Every sampler maps its draws through this one function, so a draw
        gives the same bits whichever sampler made it.
        """
        if self.kind is StrategyKind.ATOM:
            raise ValueError("atom strategies take no draws")
        if self.kind is StrategyKind.DISCRETE_PMF:
            days = np.searchsorted(self.params["cumulative"], u, side="right") + 1
            return days.astype(float)
        inverse = _FAMILIES[self.family].inverse
        if inverse is None:
            return self._invert_cdf(u)
        return inverse(u, self.spec.k, self.spec.B, self.params)

    def _invert_cdf(self, u: np.ndarray) -> np.ndarray:
        # The density vanishes linearly at 0, so sqrt(F) is nearly linear in
        # t = x/B: Newton on sqrt(F(t)) = sqrt(u) from the linear guess settles
        # in three steps.  dF/dt = B * pdf, as _pdf_inside is a density in x.
        B, top = self.spec.B, self.support_max / self.spec.B
        root_u = np.sqrt(u)
        t = root_u * top
        for _ in range(_NEWTON_STEPS):
            root_f = self._cdf_inside(t)
            np.maximum(root_f, 0.0, out=root_f)  # cancellation can dip below 0
            np.sqrt(root_f, out=root_f)
            step = np.subtract(root_f, root_u)
            step *= root_f
            step *= 2.0 / B
            # at t = 0 (u = 0) both F and the density vanish: no step
            np.divide(step, self._pdf_inside(t), out=step, where=root_f > 0.0)
            t -= step
            np.clip(t, 0.0, top, out=t)
        return np.multiply(t, B, out=t)

    # -- theory ---------------------------------------------------------

    def lagrange_corner(self) -> tuple[float, float]:
        """Corner ``(lambda1, lambda2)`` matching this strategy's regime."""
        return lagrange_corner(self.spec.mode, self.spec.k, self.spec.B, self.mean_aware)


def _discrete_classic_pmf(B: int) -> np.ndarray:
    i = np.arange(1, B + 1, dtype=float)
    z = 1.0 - (1.0 - 1.0 / B) ** B
    return ((B - 1.0) / B) ** (B - i) / (B * z)


def make_strategy(spec: StrategySpec) -> GracePeriodStrategy:
    """Build the optimal strategy for ``spec``.

    A constrained spec whose threshold condition fails falls back to the
    matching unconstrained form (for requestor-wins chains of three or more
    that fallback is the ``(1+x/B)**(k-2)`` power density; without a mean the
    plain uniform density applies).
    """
    mode, k, B = spec.mode, spec.k, spec.B
    S = spec.support_max

    if spec.variant is Variant.DETERMINISTIC:
        return GracePeriodStrategy(spec, StrategyKind.ATOM, "atom", S, {"x0": det_threshold(k, B)})

    if spec.variant is Variant.DISCRETE_CLASSIC:
        pmf = _discrete_classic_pmf(int(B))
        cumulative = np.cumsum(pmf)
        cumulative[-1] = 1.0
        return GracePeriodStrategy(
            spec, StrategyKind.DISCRETE_PMF, "discrete_classic", float(B),
            {"pmf": pmf, "cumulative": cumulative},
        )

    constrained = spec.variant is Variant.RANDOMIZED_CONSTRAINED
    if mode is ConflictMode.REQUESTOR_WINS:
        if constrained and threshold_condition(spec):
            family = "rw_log" if k == 2 else "rw_shifted_power"
        else:
            family = "rw_power" if constrained and k >= 3 else "uniform"
    else:
        family = "ra_expm1" if constrained and threshold_condition(spec) else "ra_exp"
    return GracePeriodStrategy(
        spec, StrategyKind.CONTINUOUS_PDF, family, S, _FAMILIES[family].params(k)
    )


def custom_continuous(spec: StrategySpec, pdf, mesh_points: int = 16385) -> GracePeriodStrategy:
    """Wrap an arbitrary density callable on ``[0, support_max]``.

    Intended for verification controls and perturbation probes; the CDF is
    tabulated by trapezoid accumulation on a uniform mesh.
    """
    S = spec.support_max
    mesh = np.linspace(0.0, S, mesh_points)
    vals = np.asarray([pdf(float(x)) for x in mesh], dtype=float)
    return GracePeriodStrategy(
        spec, StrategyKind.CONTINUOUS_PDF, "custom", S,
        {"pdf": pdf, "mesh": mesh, "cum": cumulative_trapezoid(mesh, vals)},
    )


def competitive_ratio(spec: StrategySpec) -> RatioReport:
    """Theoretical worst-case ratio for the regime ``spec`` resolves to.

    Constrained ratios are the dual objective ``lambda1 + lambda2*mu`` at
    the binding corner; a zero mean therefore degenerates to ratio 1.
    """
    if spec.variant is Variant.DETERMINISTIC:
        return RatioReport(det_competitive_ratio(spec.k), "unconstrained", False)
    if spec.variant is Variant.DISCRETE_CLASSIC:
        return RatioReport(math.e / (math.e - 1.0), "unconstrained", False)

    strategy = make_strategy(spec)
    lam1, lam2 = strategy.lagrange_corner()
    if strategy.mean_aware:
        return RatioReport(lam1 + lam2 * spec.mu, "constrained", True)
    holds = spec.mu is not None and threshold_condition(spec)
    # the uniform density equalizes only at k = 2; its sup is 2 (as y -> 0)
    ratio = 2.0 if strategy.family == "uniform" else lam1
    return RatioReport(ratio, "unconstrained", holds)
