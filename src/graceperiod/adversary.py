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

from .config import quote
from .rng import _ROUND, Stream
from .strategy import det_threshold

KINDS = ("geometric", "normal_truncated", "uniform", "exponential", "poisson", "point_mass")
DISCRETE_KINDS = frozenset({"geometric", "poisson"})

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# The zero-truncated Poisson inversion table holds O(sqrt(mean)) entries, 543k
# (4.3 MB) at this cap; larger means are rejected rather than truncated.
POISSON_MAX_MEAN = 1e9
_POISSON_TAIL = 1e-16  # mass the table may leave out on each side


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
    # increasing in loc.  sigma*sigma would overflow for a mean above ~4e154.
    lo = min(mean - 45.0 * sigma, -2.0 * sigma * (sigma / mean) - 10.0 * sigma)
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
            raise ValueError(f"unknown adversary kind {quote(self.kind)}; expected one of {KINDS}")
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


def _sample_normal_truncated(model: AdversaryModel, stream: Stream, out: np.ndarray) -> None:
    """Fill ``out`` with the first positive candidates
    ``loc + sigma*sqrt(-2 ln u1)*cos(2 pi u2)``, one per consecutive pair
    ``(u1, u2)`` of draws.

    Each round draws two uniforms per length still missing (at most
    ``_ROUND`` draws), so no draw goes unused: any split of the lengths
    into blocks gives the same lengths and leaves the stream where
    one-at-a-time draws would.
    """
    loc = _solve_truncated_normal_loc(model.mean, model.sigma)
    filled = 0
    while filled < out.size:
        m = min(out.size - filled, _ROUND // 2)
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


@lru_cache(maxsize=64)
def _zero_truncated_poisson_table(mean: float) -> tuple[int, np.ndarray, np.ndarray]:
    """``(lo, cdf, guide)``: ``cdf[j] = P(N <= lo + j | N >= 1)``, ``cdf[-1] = 1``,
    for ``N ~ Poisson(lam)`` with ``lam`` calibrated to ``mean``, and the guide
    table of :func:`_guide_table`.

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
    guide = _guide_table(cdf)
    cdf.flags.writeable = guide.flags.writeable = False  # shared by every caller of the cache
    return lo, cdf, guide


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen and Asau's (1974) indexed search over ``G`` equal buckets of [0, 1).

    ``G`` is the largest power of two up to the table's length, at least
    2^12 and at most 2^16, so ``floor(u*G)`` is exact and the guide is no
    longer than a table past 4096 entries.  ``guide[j]`` is
    ``searchsorted(cdf, j/G, side="right")``, or -1 when more than one CDF
    point lies in ``(j/G, (j+1)/G]``.
    """
    G = 1 << min(16, max(12, cdf.size.bit_length() - 1))
    guide = np.searchsorted(cdf, np.arange(G + 1) / G, side="right")
    several = np.diff(guide) > 1
    guide = guide[:-1]
    guide[several] = -1
    return guide


def _invert_table(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for ``u`` in [0, 1), through the guide.

    In a bucket with no CDF point the guide is the answer, and the compare
    ``cdf[k] <= u`` adds 0; with one point the compare places ``u`` against
    it.  A bucket with several points gives -1 (``cdf[-1] = 1 > u``), and
    only those ``u`` are searched.
    """
    k = guide[(u * guide.size).astype(np.intp)]
    k += cdf[k] <= u
    several = k < 0
    if several.any():
        k[several] = np.searchsorted(cdf, u[several], side="right")
    return k


def sample_length(model: AdversaryModel, stream: Stream, n: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``n`` transaction lengths, in draw order: any split of ``n`` into blocks
    draws the same lengths.

    They fill ``out`` (a new array by default) ``_ROUND`` at a time, so no
    temporary is longer than a block, and ``out`` is returned.
    """
    out = _buffer(out, n)
    kind = model.kind
    if kind == "point_mass":
        out.fill(model.value)
        return out
    if kind == "normal_truncated":
        _sample_normal_truncated(model, stream, out)
        return out
    for start in range(0, n, _ROUND):  # one uniform a length
        block = out[start:start + _ROUND]
        u = stream.uniform_open_batch(block.size)
        if kind == "exponential":
            np.log(u, out=block)
            block *= -model.mean
        elif kind == "uniform":
            np.multiply(u, 2.0 * model.mean, out=block)
        elif kind == "geometric":
            p = 1.0 / model.mean
            if p < 1.0:
                np.log(u, out=u)
                u /= math.log1p(-p)
                np.floor(u, out=block)
                block += 1.0
            else:
                block.fill(1.0)
        elif kind == "poisson":  # table inversion (Devroye 1986, X.3)
            lo, cdf, guide = _zero_truncated_poisson_table(model.mean)
            np.add(_invert_table(cdf, guide, u), lo, out=block)
        else:  # pragma: no cover
            raise AssertionError(kind)
    return out


def remaining_time(model: AdversaryModel, stream: Stream, n: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Hidden remaining times of ``n`` interrupted transactions, in ``out``
    (a new array by default), which is returned.

    Draws a length ``r`` and a uniform interrupt point ``i`` in ``[0, r)``
    and returns ``r - i`` (integer-valued for the discrete kinds).  Point
    masses return their pegged value directly.  The interrupt points follow
    the lengths in the stream; both fill ``out`` ``_ROUND`` at a time.
    """
    out = sample_length(model, stream, n, out)
    if model.is_point_mass:
        return out
    for start in range(0, n, _ROUND):
        r = out[start:start + _ROUND]  # a view: the remaining times replace the lengths
        u = stream.uniform_batch(r.size)
        if model.kind in DISCRETE_KINDS:  # r - floor(u*r)
            u *= r
            r -= np.floor(u, out=u)
        else:  # r*(1 - u)
            r *= np.subtract(1.0, u, out=u)
    return out


def _buffer(out: np.ndarray | None, n: int) -> np.ndarray:
    if out is None:
        return np.empty(n)
    if out.shape != (n,) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape ({n},), "
                         f"got {out.dtype} {out.shape}")
    return out
