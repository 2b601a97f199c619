"""Adversarial transaction-length models.

A model describes how long the transaction on the losing side of a conflict
still has to run.  The named distributions model the *length* ``r`` of a
transaction and are calibrated so the length mean equals the configured
``mean`` exactly (discrete and truncated kinds solve for their underlying
parameter rather than accepting the bias).  The benchmark protocol then
interrupts a drawn transaction at a uniformly random point, so the hidden
remaining time is ``r - i`` with ``i`` uniform on ``[0, r)``; see
:func:`remaining_time`.

Point-mass models peg the remaining time itself (no interrupt draw), which
is how the worst-case adversary for the deterministic strategy is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import Stream
from .strategy import det_threshold

KINDS = ("geometric", "normal_truncated", "uniform", "exponential", "poisson", "point_mass")
DISCRETE_KINDS = frozenset({"geometric", "poisson"})

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# The zero-truncated Poisson inversion table holds O(sqrt(mean)) entries, 543k
# (4.3 MB) at this cap; larger means are rejected rather than truncated.
POISSON_MAX_MEAN = 1e9
_POISSON_TAIL = 1e-16  # mass the table may leave out on each side
_ROUND = 1 << 14  # draws (normal candidate pairs) taken at a time: bounds the temporaries


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT2PI


def _big_phi(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _inv_mills(a: float) -> float:
    # phi(a)/Phi(a); erfc keeps the direct form stable down to a ~ -30,
    # beyond that use the tail expansion -a + 1/(-a) - 2/(-a)^3.
    if a > -30.0:
        return _phi(a) / _big_phi(a)
    t = -a
    return t + 1.0 / t - 2.0 / t ** 3


def _bisect(f, target: float, lo: float, hi: float, iters: int) -> float:
    """Midpoint of ``[lo, hi]`` after ``iters`` halvings toward ``f = target``,
    for increasing ``f``."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def _solve_truncated_normal_loc(mean: float, sigma: float) -> float:
    # E[X | X > 0] for X ~ N(loc, sigma) is loc + sigma*inv_mills(loc/sigma),
    # increasing in loc.
    lo = min(mean - 45.0 * sigma, -2.0 * sigma * sigma / mean - 10.0 * sigma)
    loc = _bisect(lambda m: m + sigma * _inv_mills(m / sigma), mean, lo, mean, 200)
    if _big_phi(loc / sigma) < 1e-2:
        raise ValueError(
            f"normal_truncated with mean {mean} and sigma {sigma} leaves under 1% "
            f"of the mass above zero; pick a smaller sigma"
        )
    return loc


def _solve_zero_truncated_poisson_rate(mean: float) -> float:
    # E[N | N >= 1] = lam / (1 - exp(-lam)), increasing, range (1, inf).
    return _bisect(lambda lam: lam / -math.expm1(-lam), mean, 1e-12, mean, 80)


@dataclass(frozen=True)
class AdversaryModel:
    """A calibrated length (or pegged remaining-time) distribution."""

    kind: str
    mean: float
    sigma: float | None = None  # normal_truncated; defaults to mean/4
    value: float | None = None  # point_mass

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "point_mass":
            v = self.value if self.value is not None else self.mean
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"point mass must be positive, got {v}")
            object.__setattr__(self, "value", float(v))
            object.__setattr__(self, "mean", float(v))
            return
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be positive, got {self.mean}")
        if self.kind == "geometric" and self.mean < 1.0:
            raise ValueError("geometric lengths live on {1,2,...}; mean must be >= 1")
        if self.kind == "poisson" and not 1.0 < self.mean <= POISSON_MAX_MEAN:
            raise ValueError(
                f"zero-truncated poisson needs 1 < mean <= {POISSON_MAX_MEAN:g} "
                f"(its inversion table grows as sqrt(mean)), got {self.mean}"
            )
        if self.kind == "normal_truncated":
            sigma = self.sigma if self.sigma is not None else self.mean / 4.0
            if not (sigma > 0.0):
                raise ValueError(f"sigma must be positive, got {sigma}")
            object.__setattr__(self, "sigma", float(sigma))

    @property
    def is_point_mass(self) -> bool:
        return self.kind == "point_mass"


def worst_case_for_det(k: int, B: float) -> AdversaryModel:
    """Point mass at the deterministic threshold ``B/(k-1)``.

    Under the tie-aborts rule this forces the deterministic strategy into
    its worst case, realizing ratio ``2 + 1/(k-1)``.
    """
    x0 = det_threshold(k, B)
    return AdversaryModel(kind="point_mass", mean=x0, value=x0)


def _sample_normal_truncated(model: AdversaryModel, stream: Stream, n: int) -> np.ndarray:
    """The first ``n`` positive candidates ``loc + sigma*sqrt(-2 ln u1)*cos(2 pi u2)``,
    one per consecutive pair ``(u1, u2)`` of draws.

    Each round draws two uniforms per length still missing (at most
    ``_ROUND`` pairs), so no draw goes unused: any split of ``n`` into
    blocks gives the same lengths and leaves the stream where ``n``
    one-at-a-time draws would.
    """
    loc = _solve_truncated_normal_loc(model.mean, model.sigma)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = min(n - filled, _ROUND)
        pairs = stream.uniform_open_batch(2 * m).reshape(m, 2).T.copy()
        cand, u2 = pairs  # contiguous rows, transformed in place
        np.log(cand, out=cand)
        cand *= -2.0
        np.sqrt(cand, out=cand)
        u2 *= 2.0 * math.pi
        cand *= np.cos(u2, out=u2)
        cand *= model.sigma
        cand += loc
        cand = cand[cand > 0.0]
        out[filled:filled + cand.size] = cand
        filled += cand.size
    return out


@lru_cache(maxsize=64)
def _zero_truncated_poisson_table(mean: float) -> tuple[int, np.ndarray]:
    """``(lo, cdf)``: ``cdf[j] = P(N <= lo + j | N >= 1)``, ``cdf[-1] = 1``, for
    ``N ~ Poisson(lam)`` with ``lam`` calibrated to ``mean``.

    The window is O(sqrt(lam)) wide: Chernoff's ``P(N <= lam - x) <=
    exp(-x^2/(2 lam))`` and ``P(N >= lam + x) <= exp(-x^2/(2(lam + x)))`` put
    under ``_POISSON_TAIL`` of the truncated mass outside it on each side.  The
    log pmf is summed from its ratios ``ln(lam/n)``: ``lgamma`` at ``n ~ lam``
    would lose ``~lam * 1e-16`` of it.
    """
    lam = _solve_zero_truncated_poisson_rate(mean)
    c = -math.log(_POISSON_TAIL) - math.log(-math.expm1(-lam))
    lo = max(1, math.floor(lam - math.sqrt(2.0 * c * lam)))
    hi = math.ceil(lam + c + math.sqrt(c * c + 2.0 * c * lam))
    log_pmf = np.arange(lo, hi + 1, dtype=float)
    np.log(np.divide(lam, log_pmf, out=log_pmf), out=log_pmf)
    log_pmf[0] = 0.0
    np.cumsum(log_pmf, out=log_pmf)  # peaks about c above lo: exp cannot overflow
    cdf = np.cumsum(np.exp(log_pmf, out=log_pmf), out=log_pmf)
    cdf /= cdf[-1]
    cdf.flags.writeable = False  # shared by every caller of the cache
    return lo, cdf


def sample_length(model: AdversaryModel, stream: Stream, n: int) -> np.ndarray:
    """``n`` transaction lengths, in draw order: any split of ``n`` into blocks
    draws the same lengths."""
    kind = model.kind
    if kind == "point_mass":
        out = np.full(n, model.value)
    elif kind == "normal_truncated":
        out = _sample_normal_truncated(model, stream, n)
    else:  # one uniform a length, transformed in place
        out = stream.uniform_open_batch(n)
        if kind == "exponential":
            np.log(out, out=out)
            out *= -model.mean
        elif kind == "uniform":
            out *= 2.0 * model.mean
        elif kind == "geometric":
            p = 1.0 / model.mean
            if p < 1.0:
                np.log(out, out=out)
                out /= math.log1p(-p)
                np.floor(out, out=out)
                out += 1.0
            else:
                out.fill(1.0)
        elif kind == "poisson":  # table inversion (Devroye 1986, X.3)
            lo, cdf = _zero_truncated_poisson_table(model.mean)
            np.add(np.searchsorted(cdf, out, side="right"), lo, out=out)
        else:  # pragma: no cover
            raise AssertionError(kind)
    return out


def remaining_time(model: AdversaryModel, stream: Stream, n: int) -> np.ndarray:
    """Hidden remaining times of ``n`` interrupted transactions.

    Draws a length ``r`` and a uniform interrupt point ``i`` in ``[0, r)``
    and returns ``r - i`` (integer-valued for the discrete kinds).  Point
    masses return their pegged value directly.  The interrupt points follow
    the lengths in the stream, drawn ``_ROUND`` at a time.
    """
    if model.is_point_mass:
        return np.full(n, model.value)
    out = sample_length(model, stream, n)
    for lo in range(0, n, _ROUND):
        r = out[lo:lo + _ROUND]  # a view: the remaining times replace the lengths
        u = stream.uniform_batch(r.size)
        if model.kind in DISCRETE_KINDS:  # r - floor(u*r)
            u *= r
            r -= np.floor(u, out=u)
        else:  # r*(1 - u)
            r *= np.subtract(1.0, u, out=u)
    return out
