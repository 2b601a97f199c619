"""Independent numerical verification of the closed-form strategies.

Every closed form shipped by :mod:`graceperiod.strategy` is re-checked here
without reusing that closed form: densities are integrated by adaptive
Simpson quadrature, worst-case ratios are found by dense grid scans refined
on finer grids, and the dual cost identity
``Cost(p, y)/((k-1)y) = lambda1 + lambda2*y`` is evaluated pointwise.
Optimality is certified by Yao's minimax principle (Yao 1977): against one
adversary distribution every grace period costs the same, which bounds the
ratio of every randomized strategy from below (:func:`yao_lower_bound`), and
each unconstrained density's worst case meets that bound
(:func:`optimality_probe`).  The suite also carries negative controls
(malformed or suboptimal densities that must be flagged).  No check draws a
random number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import costmodel
from .quadrature import adaptive_simpson
from .strategy import (
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    check_chain_size,
    det_competitive_ratio,
    det_threshold,
    lagrange_corner,
    make_strategy,
    mean_threshold,
    stacked_pdf,
)

NORMALIZATION_TOL = 1e-6
DENSITY_FLOOR = -1e-12
IDENTITY_TOL = 1e-9
WORST_CASE_TOL = 1e-9
ADVERSARY_TOL = 1e-9  # the adversary's flat cost and its ratio, by quadrature
CERTIFICATE_TOL = 1e-12  # a closed-form worst case against the closed-form bound
_ARGMAX_TIE_TOL = 1e-12  # relative: ratios this close to the day pmf's maximum tie
_EXACT_PMF_MAX_B = 12
_PDF_GRID = 10_000  # points of the nonnegativity scan
_IDENTITY_POINTS = 1000  # interior points of the cost identity
_REFINE_POINTS = 257  # per worst-case refinement grid
_RW = ConflictMode.REQUESTOR_WINS
_RA = ConflictMode.REQUESTOR_ABORTS
_MODES = ((_RW, "rw"), (_RA, "ra"))


@dataclass(frozen=True)
class PdfCheck:
    normalization_error: float
    min_density: float
    passed: bool


@dataclass(frozen=True)
class IdentityCheck:
    max_residual: float
    point_mass_residual: float
    passed: bool


@dataclass(frozen=True)
class Certificate:
    passed: bool
    worst_case: float  # the strategy's worst_case_ratio
    bound: float  # yao_lower_bound(mode, k)
    adversary_ratio: float  # E_pi[cost(0)] / E_pi[opt], by quadrature
    flatness: float  # max over x of |E_pi[cost(x)] / E_pi[cost(0)] - 1|


def verify_density(pdf, support_max: float) -> PdfCheck:
    """Check a density on ``[0, support_max]``: normalization by adaptive
    Simpson, nonnegativity on a grid.  ``pdf`` maps an array of points to an
    array of values."""
    total = adaptive_simpson(lambda x, _: pdf(x), 0.0, support_max)
    return _pdf_check(abs(total - 1.0), pdf, support_max)


def _pdf_check(err: float, pdf, support_max: float) -> PdfCheck:
    """The verdict on a density whose integral misses 1 by ``err``; its
    minimum is taken on a grid of ``_PDF_GRID`` points."""
    min_density = float(np.min(pdf(np.linspace(0.0, support_max, _PDF_GRID))))
    ok = err < NORMALIZATION_TOL and min_density > DENSITY_FLOOR and math.isfinite(err)
    return PdfCheck(err, min_density, ok)


def verify_pdf(strategy: GracePeriodStrategy) -> PdfCheck:
    """Check a strategy's pmf exactly or its density by quadrature: one
    point of :func:`_verify_pdfs`."""
    return _verify_pdfs([strategy])[0]


def _pmf_check(strategy: GracePeriodStrategy) -> PdfCheck:
    """The day pmf sums to 1 (in exact integers up to ``_EXACT_PMF_MAX_B``)."""
    if int(strategy.spec.B) <= _EXACT_PMF_MAX_B:
        masses, den = strategy.exact_day_masses()
        err = abs(sum(masses) - den) / den
    else:
        err = abs(float(np.sum(strategy.params["pmf"])) - 1.0)
    min_density = float(np.min(strategy.params["pmf"]))
    return PdfCheck(err, min_density, err < NORMALIZATION_TOL and min_density > DENSITY_FLOOR)


def _verify_pdfs(strategies: list[GracePeriodStrategy]) -> list[PdfCheck]:
    """Check many strategies' pmfs or densities, one result each.

    Day pmfs are summed exactly.  The densities are checked once per
    ``(family, k, B)``, which fixes the density (``mu`` only picks the
    family): every distinct one is integrated over its support in one
    adaptive Simpson pass through :func:`stacked_pdf`, and its grid is
    scanned on its own, which keeps one grid in memory at a time.
    """
    if any(s.kind is StrategyKind.ATOM for s in strategies):
        raise ValueError("atom strategies carry no density to verify")
    distinct = {
        (s.family, s.spec.k, s.spec.B): s
        for s in strategies if s.kind is StrategyKind.CONTINUOUS_PDF
    }
    densities = list(distinct.values())
    supports = np.array([s.support_max for s in densities])
    totals = adaptive_simpson(stacked_pdf(densities), 0.0, supports)
    checks = {
        key: _pdf_check(abs(total - 1.0), s.pdf, s.support_max)
        for (key, s), total in zip(distinct.items(), totals.tolist())
    }
    return [
        checks[s.family, s.spec.k, s.spec.B] if s.kind is StrategyKind.CONTINUOUS_PDF
        else _pmf_check(s)
        for s in strategies
    ]


def lagrange_identity_check(
    strategy: GracePeriodStrategy,
    lam1: float,
    lam2: float,
) -> IdentityCheck:
    """Residuals of the dual cost identity along the support.

    Checks ``Cost(p, y)/((k-1)y) = lam1 + lam2*y`` on an interior grid and
    the point-mass constraint at ``K = support_max`` (the always-abort cost
    over ``B``), both as relative residuals.  The grid and the point ``2S``
    beyond the support are costed in one call; the cost is elementwise.
    """
    S = strategy.support_max
    k = strategy.spec.k
    ys = np.linspace(S / _IDENTITY_POINTS, S, _IDENTITY_POINTS)
    costs = costmodel.batch_expected_costs(strategy, np.append(ys, 2.0 * S))
    costs, beyond = costs[:-1], costs[-1]
    line = lam1 + lam2 * ys
    max_residual = float(np.max(np.abs(costs / ((k - 1) * ys) - line) / line))
    target = lam1 + lam2 * S
    point_mass_residual = abs(beyond / strategy.spec.B - target) / target
    passed = max_residual < IDENTITY_TOL and point_mass_residual < IDENTITY_TOL
    return IdentityCheck(max_residual, point_mass_residual, passed)


def worst_case_ratio(
    strategy: GracePeriodStrategy, n_grid: int = 2000
) -> tuple[float, float]:
    """Max of the ratio profile over point adversaries, with its argmax.

    Continuous strategies scan a dense grid on the support (plus one point
    beyond it, where the offline optimum is pinned at ``B``), refine an
    interior grid argmax on finer grids, and add the exact limit as ``y -> 0+``,
    ``1 + abort(0) * pdf(0) / (k-1)``, with argmax 0; the discrete classic
    scans integer days, its argmax the first day within 1e-12 of the maximum;
    atoms are evaluated exactly on and beyond their jump.
    """
    S = strategy.support_max
    if strategy.kind is StrategyKind.DISCRETE_PMF:
        ys = np.arange(1.0, int(strategy.spec.B) + 2.0)
    elif strategy.kind is StrategyKind.ATOM:
        # the ratio ties at S and 1.5S, and argmax takes S first
        ys = np.append(np.linspace(S / n_grid, S, n_grid), [0.5 * S, 1.5 * S])
    else:
        ys = np.append(np.linspace(S / n_grid, S, n_grid), 1.5 * S)
    ratios = costmodel.batch_ratios(strategy, ys)
    idx = int(np.argmax(ratios))
    best = float(ratios[idx])
    if strategy.kind is StrategyKind.DISCRETE_PMF:
        # the days up to B tie at the granular optimum to rounding: report the
        # first one within _ARGMAX_TIE_TOL of the maximum, not the one the last bit picks
        idx = int(np.argmax(ratios >= best - _ARGMAX_TIE_TOL * best))
    best_y = float(ys[idx])

    if strategy.kind is StrategyKind.CONTINUOUS_PDF and 0 < idx < len(ys) - 1 and ys[idx] < S:
        # refine an interior argmax on two finer grids, each spanning the
        # neighbours of the previous argmax: spacing ~3e-8 of the support
        lo, hi = float(ys[idx - 1]), float(ys[idx + 1])
        for _ in range(2):
            zs = np.linspace(lo, hi, _REFINE_POINTS)
            rs = costmodel.batch_ratios(strategy, zs)
            j = int(np.argmax(rs))
            lo, hi = float(zs[max(j - 1, 0)]), float(zs[min(j + 1, _REFINE_POINTS - 1)])
        if rs[j] > best:
            best, best_y = float(rs[j]), float(zs[j])
    if strategy.kind is StrategyKind.CONTINUOUS_PDF:
        mode, k, B = strategy.spec.mode, strategy.spec.k, strategy.spec.B
        at_zero = float(costmodel.conflict_cost(mode, k, B, 0.0, 0.0))
        limit = 1.0 + at_zero * strategy.pdf(0.0) / (k - 1)
        if limit > best:
            best, best_y = limit, 0.0
    return best, best_y


def abort_density_comparison(B: float) -> tuple[float, float]:
    """Endpoint densities at ``x = B`` of the two k=2 mean-aware strategies.

    Returns ``(ln2/(B(ln4-1)), (e-1)/(B(e-2)))`` evaluated through the
    strategy objects; the requestor-wins value should be the smaller one (it
    grants the full grace less often), which verify checks.
    """
    rw, ra = (make_strategy(StrategySpec(mode, 2, B, Variant.RANDOMIZED_CONSTRAINED, mu=0.0))
              for mode in (_RW, _RA))
    return rw.pdf(B), ra.pdf(B)


# -- optimality certificate (Yao's principle) ---------------------------


def yao_lower_bound(mode: ConflictMode, k: int) -> float:
    """The worst-case ratio no randomized strategy beats, at any ``B``.

    It is ``abort(0)/E_pi[opt]`` against the adversary of
    :func:`_adversary_costs`: ``q/(q-1)`` under requestor wins and
    ``(1+eps)/eps`` under requestor aborts, written as ``-1/expm1(-t)``,
    which does not cancel at large ``k``.
    """
    k = check_chain_size(k)
    t = (k - 1) * math.log1p(1.0 / (k - 1)) if mode is _RW else 1.0 / (k - 1)
    return -1.0 / math.expm1(-t)


def _adversary_costs(mode: ConflictMode, k: int, B: float, xs: np.ndarray):
    """Yao's adversary: ``E_pi[cost(x)]`` at grace periods ``xs`` ascending
    from 0 to ``S = B/(k-1)``, and ``E_pi[opt]``.

    Its tail ``G(y) = P(Y > y)`` is ``(B/(y+B))**k`` (requestor wins) or
    ``e**(-y/B)`` (requestor aborts) on ``(0, S]``; the rest of its mass sits
    at ``y = inf``.  With ``I(x) = integral_0^x G``, summed from adaptive
    Simpson integrals between consecutive ``xs``,
    ``E_pi[cost(x)] = (k-1)(I(x) - x G(x)) + abort(x) G(x)``, the same at every
    ``x`` because ``G`` solves ``(x+B)G' + kG = 0`` or ``BG' + G = 0`` (a
    grace past ``S`` costs more), and ``E_pi[opt] = (k-1) I(S)``.
    """
    def tail(y):
        return np.exp(-k * np.log1p(y / B)) if mode is _RW else np.exp(-y / B)

    steps = adaptive_simpson(lambda y, _: tail(y), xs[:-1], xs[1:])
    integrals = np.concatenate([[0.0], np.cumsum(steps)])
    g = tail(xs)
    costs = (k - 1) * (integrals - xs * g) + costmodel.conflict_cost(mode, k, B, xs, xs) * g
    return costs, (k - 1) * integrals[-1]


def optimality_probe(strategy: GracePeriodStrategy) -> Certificate:
    """Certify ``strategy`` optimal: its worst case meets :func:`yao_lower_bound`.

    Passes when the adversary's cost is flat at 8 grace periods spread over
    ``[0, B/(k-1)]`` and its ratio is the bound, both to ``ADVERSARY_TOL``,
    and the strategy's :func:`worst_case_ratio` is the bound to
    ``CERTIFICATE_TOL``, relative.  Atoms, the day pmf and the mean-aware
    densities (optimal only under their mean) raise a ValueError.
    """
    if strategy.kind is not StrategyKind.CONTINUOUS_PDF or strategy.mean_aware:
        raise ValueError(
            f"the optimality certificate covers unconstrained densities, not {strategy.family}"
        )
    worst, _ = worst_case_ratio(strategy)
    mode, k, B = strategy.spec.mode, strategy.spec.k, strategy.spec.B
    costs, opt = _adversary_costs(mode, k, B, np.linspace(0.0, strategy.support_max, 8))
    bound = yao_lower_bound(mode, k)
    ratio, flatness = float(costs[0] / opt), float(np.max(np.abs(costs / costs[0] - 1.0)))
    passed = (
        max(flatness, abs(ratio / bound - 1.0)) <= ADVERSARY_TOL
        and abs(worst - bound) <= CERTIFICATE_TOL * bound
    )
    return Certificate(passed, worst, bound, ratio, flatness)


# -- the full machine-readable suite -------------------------------------


def _check(name, passed, **details):
    entry = {"name": name, "passed": bool(passed)}
    entry.update(details)
    return entry


def _normalization_cells() -> list[tuple[str, StrategySpec]]:
    """``(name, spec)`` of each normalization entry: 96 densities (45 distinct,
    as a constrained spec past its mean threshold is the unconstrained
    density) and 3 day pmfs."""
    cells = []
    for k in (2, 3, 5, 10):
        for B in (10.0, 200.0, 2000.0):
            cells += [(f"{tag}_unconstrained_k{k}_B{B:g}",
                       StrategySpec(mode, k, B, Variant.RANDOMIZED_UNCONSTRAINED))
                      for mode, tag in _MODES]
            for mu in (0.1 * B, 0.5 * B, 2.0 * B):
                cells += [(f"{tag}_constrained_k{k}_B{B:g}_mu{mu:g}",
                           StrategySpec(mode, k, B, Variant.RANDOMIZED_CONSTRAINED, mu=mu))
                          for mode, tag in _MODES]
    cells += [(f"discrete_classic_B{B}", StrategySpec(_RA, 2, float(B), Variant.DISCRETE_CLASSIC))
              for B in (3, 10, 100)]
    return cells


def _normalization_checks() -> list[dict]:
    cells = _normalization_cells()
    results = _verify_pdfs([make_strategy(spec) for _, spec in cells])
    return [
        _check(f"normalization/{name}", res.passed, residual=res.normalization_error,
               min_density=res.min_density, tolerance=NORMALIZATION_TOL)
        for (name, _), res in zip(cells, results)
    ]


def _negative_control_checks() -> list[dict]:
    # ln((B+x)/x) in place of ln((B+x)/B): it integrates to ln4/(ln4-1) at
    # every B, as the integral of ln((B+x)/x) over [0, B] is 2B ln2.
    B = 10.0
    c = B * (2.0 * math.log(2.0) - 1.0)
    res = verify_density(lambda x: np.log((B + x) / np.maximum(x, 1e-12)) / c, B)
    return [_check(
        "negative_control/wrong_form_rw_constrained_detected", not res.passed,
        residual=res.normalization_error, tolerance=NORMALIZATION_TOL,
        note="malformed density must fail normalization",
    )]


def _identity_cases() -> list[tuple[str, GracePeriodStrategy, tuple[float, float]]]:
    """``(name, strategy, corner)`` of each cost-identity entry: 24 densities,
    a constrained one at half its mean threshold."""
    cases = []
    for mode, tag in _MODES:
        for k in (2, 3, 5):
            for B in (10.0, 100.0):
                for variant in (Variant.RANDOMIZED_UNCONSTRAINED, Variant.RANDOMIZED_CONSTRAINED):
                    constrained = variant is Variant.RANDOMIZED_CONSTRAINED
                    mu = 0.5 * mean_threshold(mode, k, B) if constrained else None
                    cases.append((
                        f"{tag}_{variant.value.removeprefix('randomized_')}_k{k}_B{B:g}",
                        make_strategy(StrategySpec(mode, k, B, variant, mu=mu)),
                        lagrange_corner(mode, k, B, constrained),
                    ))
    return cases


def _identity_checks() -> list[dict]:
    checks = []
    for name, strat, corner in _identity_cases():
        res = lagrange_identity_check(strat, *corner)
        checks.append(_check(
            f"lagrange/{name}", res.passed, max_residual=res.max_residual,
            point_mass_residual=res.point_mass_residual, tolerance=IDENTITY_TOL,
        ))
    return checks


def _worst_case_checks() -> list[dict]:
    checks = []
    for B in (10.0, 200.0, 2000.0):
        strat = make_strategy(StrategySpec(_RW, 2, B, Variant.RANDOMIZED_UNCONSTRAINED))
        ratio, _ = worst_case_ratio(strat)
        checks.append(_check(
            f"worst_case/rw_uniform_k2_B{B:g}", abs(ratio - 2.0) < WORST_CASE_TOL,
            value=ratio, expected=2.0, tolerance=WORST_CASE_TOL,
        ))
    for k in (2, 3, 5, 10):
        strat = make_strategy(StrategySpec(_RW, k, 100.0, Variant.DETERMINISTIC))
        ratio, arg = worst_case_ratio(strat)
        expected = 2.0 + 1.0 / (k - 1)
        checks.append(_check(
            f"worst_case/det_k{k}", abs(ratio - expected) < WORST_CASE_TOL,
            value=ratio, expected=expected, argmax=arg, tolerance=WORST_CASE_TOL,
        ))
    strat = make_strategy(StrategySpec(_RA, 2, 100.0, Variant.DISCRETE_CLASSIC))
    ratio, arg = worst_case_ratio(strat)
    bound = math.e / (math.e - 1.0) + 1e-3
    checks.append(_check(
        "worst_case/ra_discrete_classic_B100_upper_bound", ratio <= bound,
        value=ratio, bound=bound, argmax=arg,
        note="day-granular equalized ratio 1/(1-(1-1/B)^B) stays below the continuous limit",
    ))
    return checks


def _certificate_checks() -> list[dict]:
    def unc(mode, k):
        return StrategySpec(mode, k, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)

    cases = [
        (f"{tag}_k{k}", make_strategy(unc(mode, k)), True)
        for mode, tag in _MODES for k in (2, 3, 5, 10)
    ] + [  # controls, each a density judged at a spec it was not built for: the
        # uniform density at RW k = 3 (ratio 2 against 1.8), and the classic
        # ski-rental density under RW (1 + 2/(e-1) against 2)
        ("control_rw_uniform_k3_detected",
         replace(make_strategy(unc(_RW, 2)), spec=unc(_RW, 3)), False),
        ("control_classic_under_rw_detected",
         replace(make_strategy(unc(_RA, 2)), spec=unc(_RW, 2)), False),
    ]
    checks = []
    for name, strat, optimal in cases:
        res = optimality_probe(strat)
        checks.append(_check(
            f"certificate/{name}", res.passed is optimal, value=res.worst_case,
            expected=res.bound, residual=abs(res.worst_case - res.bound) / res.bound,
            tolerance=CERTIFICATE_TOL, adversary_ratio=res.adversary_ratio, flatness=res.flatness,
        ))
    return checks


def _deterministic_certificate_checks() -> list[dict]:
    """A threshold ``x`` is worst off at the tie ``y = x`` (ties abort), paying
    ``k*x + B`` against ``min((k-1)x, B)``.  Over a grid plus ``B/(k-1)``, the
    least such ratio must sit at ``B/(k-1)`` and be ``2 + 1/(k-1)``."""
    checks = []
    for k in (2, 3, 5, 10):
        B, threshold, expected = 100.0, det_threshold(k, 100.0), det_competitive_ratio(k)
        xs = np.append(np.geomspace(1e-4, 10.0, 1000) * B, threshold)
        ratios = costmodel.conflict_cost(_RW, k, B, xs, xs) / costmodel.opt_cost(k, B, xs)
        idx = int(np.argmin(ratios))
        value, argmin = float(ratios[idx]), float(xs[idx])
        residual = abs(value - expected) / expected
        at_threshold = abs(argmin - threshold) <= CERTIFICATE_TOL * threshold
        checks.append(_check(
            f"certificate/det_k{k}", at_threshold and residual <= CERTIFICATE_TOL, value=value,
            expected=expected, argmin=argmin, residual=residual, tolerance=CERTIFICATE_TOL,
        ))
    return checks


# one strategy per closed-form family, for the checks against quadrature
_QUADRATURE_CASES = [
    ("rw_uniform", StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
    ("rw_log", StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=10.0)),
    ("rw_shifted_power", StrategySpec(_RW, 4, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1.0)),
    ("rw_power", StrategySpec(_RW, 4, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
    ("ra_exp", StrategySpec(_RA, 3, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
    ("ra_expm1", StrategySpec(_RA, 3, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1.0)),
]
_QUADRATURE_FRACTIONS = (0.125, 0.375, 0.625, 0.875, 1.0)


def _quadrature_checks() -> list[dict]:
    """Each family's closed-form cdf, then the partial moments the expected
    costs rest on, against quadrature."""
    strats = [make_strategy(spec) for _, spec in _QUADRATURE_CASES]
    # row i holds case i's points; the integral at flat index j is row j // n
    xs = np.array([np.multiply(_QUADRATURE_FRACTIONS, s.support_max) for s in strats])
    n, pdf = len(_QUADRATURE_FRACTIONS), stacked_pdf(strats)
    cdfs = adaptive_simpson(lambda t, which: pdf(t, which // n), 0.0, xs)
    moments = adaptive_simpson(lambda t, which: t * pdf(t, which // n), 0.0, xs)
    cdf_checks, moment_checks = [], []
    for (name, _), strat, x, cdf, integrals in zip(_QUADRATURE_CASES, strats, xs, cdfs, moments):
        S = strat.support_max
        cdf_worst = float(np.max(np.abs(strat.cdf(x) - cdf)))
        moment_worst = float(np.max(np.abs(strat.moment(x) - integrals)))
        cdf_checks.append(_check(
            f"cdf_vs_quadrature/{name}", cdf_worst < 1e-8, residual=cdf_worst, tolerance=1e-8,
        ))
        residual = moment_worst / strat.moment(S)
        moment_checks.append(_check(
            f"moment_vs_quadrature/{name}", residual < 1e-8, residual=residual, tolerance=1e-8,
        ))
    return cdf_checks + moment_checks


def run_verification_suite(seed: int = 20240405) -> dict:
    """Full oracle grid; returns a JSON-serializable report.

    ``seed`` is echoed in the report; no check draws from it.
    """
    groups = (_normalization_checks, _negative_control_checks, _identity_checks,
              _worst_case_checks, _certificate_checks, _deterministic_certificate_checks,
              _quadrature_checks)
    checks = [check for group in groups for check in group()]
    rw_d, ra_d = abort_density_comparison(1.0)
    checks.append(_check(
        "discussion/endpoint_density_ordering", rw_d < ra_d,
        requestor_wins=rw_d, requestor_aborts=ra_d,
    ))
    failed = [c["name"] for c in checks if not c["passed"]]
    return {
        "schema_version": 1,
        "seed": seed,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "failed": failed,
        "passed": not failed,
        "checks": checks,
    }
