"""Independent numerical verification of the closed-form strategies.

Every closed form shipped by :mod:`graceperiod.strategy` is re-checked here
without reusing that closed form: densities are integrated by adaptive
Simpson quadrature, worst-case ratios are found by dense grid scans with
golden-section refinement, the dual cost identity
``Cost(p, y)/((k-1)y) = lambda1 + lambda2*y`` is evaluated pointwise, and
local optimality is probed by mixing random bump densities into a strategy
and checking that none improves its objective.  The suite also carries
negative controls (malformed densities that must be flagged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import costmodel
from .quadrature import adaptive_simpson
from .rng import Stream
from .strategy import (
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    custom_continuous,
    lagrange_corner,
    make_strategy,
    threshold_condition,
)

NORMALIZATION_TOL = 1e-6
DENSITY_FLOOR = -1e-12
IDENTITY_TOL = 1e-6
PROBE_TOL = 1e-4
_EXACT_PMF_MAX_B = 12


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
class ProbeResult:
    passed: bool
    base_objective: float
    best_perturbed_objective: float
    best_improvement: float

    def __bool__(self) -> bool:
        return self.passed


def verify_pdf(strategy: GracePeriodStrategy, n_grid: int = 10_000) -> PdfCheck:
    """Check normalization (quadrature) and nonnegativity (grid scan)."""
    if strategy.kind is StrategyKind.ATOM:
        raise ValueError("atom strategies carry no density to verify")
    if strategy.kind is StrategyKind.DISCRETE_PMF:
        B = int(strategy.spec.B)
        if B <= _EXACT_PMF_MAX_B:
            total = sum(strategy.exact_pmf(i) for i in range(1, B + 1))
            err = abs(float(total - Fraction(1)))
        else:
            err = abs(float(np.sum(strategy.params["pmf"])) - 1.0)
        min_density = float(np.min(strategy.params["pmf"]))
        return PdfCheck(err, min_density, err < NORMALIZATION_TOL and min_density > DENSITY_FLOOR)
    total = adaptive_simpson(strategy.pdf, 0.0, strategy.support_max)
    grid = np.linspace(0.0, strategy.support_max, n_grid)
    min_density = float(np.min(strategy.pdf(grid)))
    err = abs(total - 1.0)
    ok = err < NORMALIZATION_TOL and min_density > DENSITY_FLOOR and math.isfinite(err)
    return PdfCheck(err, min_density, ok)


def lagrange_identity_check(
    strategy: GracePeriodStrategy,
    lam1: float,
    lam2: float,
    n_points: int = 1000,
) -> IdentityCheck:
    """Residuals of the dual cost identity along the support.

    Checks ``Cost(p, y)/((k-1)y) = lam1 + lam2*y`` on an interior grid and
    the point-mass constraint at ``K = support_max`` (the always-abort cost
    over ``B``), both as relative residuals.
    """
    S = strategy.support_max
    k = strategy.spec.k
    ys = np.linspace(S / n_points, S, n_points)
    costs = costmodel.batch_expected_costs(strategy, ys)
    line = lam1 + lam2 * ys
    max_residual = float(np.max(np.abs(costs / ((k - 1) * ys) - line) / line))
    beyond = costmodel.batch_expected_costs(strategy, np.array([2.0 * S]))[0]
    target = lam1 + lam2 * S
    point_mass_residual = abs(beyond / strategy.spec.B - target) / target
    return IdentityCheck(
        max_residual,
        point_mass_residual,
        max_residual < IDENTITY_TOL and point_mass_residual < IDENTITY_TOL,
    )


def _ratio_at(strategy: GracePeriodStrategy, y: float) -> float:
    cost = costmodel.batch_expected_costs(strategy, np.array([y]))[0]
    return cost / min((strategy.spec.k - 1) * y, strategy.spec.B)


def worst_case_ratio(
    strategy: GracePeriodStrategy, n_grid: int = 2000
) -> tuple[float, float]:
    """Max of the ratio profile over point adversaries, with its argmax.

    Continuous strategies scan a dense grid on the support (plus one point
    beyond it, where the offline optimum is pinned at ``B``) and refine the
    grid argmax by golden-section search; the discrete classic scans integer
    days; atoms are evaluated exactly on and beyond their jump.
    """
    S = strategy.support_max
    if strategy.kind is StrategyKind.DISCRETE_PMF:
        B = int(strategy.spec.B)
        ys = np.arange(1.0, B + 2.0)
        ratios = [r for _, r in costmodel.ratio_profile(strategy, ys)]
        idx = int(np.argmax(ratios))
        return float(ratios[idx]), float(ys[idx])

    if strategy.kind is StrategyKind.ATOM:
        x0 = strategy.params["x0"]
        ys = np.unique(np.concatenate([
            np.linspace(S / n_grid, S, n_grid), [x0, 0.5 * x0, 1.5 * S]
        ]))
        ratios = [r for _, r in costmodel.ratio_profile(strategy, ys)]
        idx = int(np.argmax(ratios))
        return float(ratios[idx]), float(ys[idx])

    head = np.geomspace(S * 1e-6, S / n_grid, 32)
    ys = np.unique(np.concatenate([head, np.linspace(S / n_grid, S, n_grid), [1.5 * S]]))
    ratios = np.asarray([r for _, r in costmodel.ratio_profile(strategy, ys)])
    idx = int(np.argmax(ratios))
    best, best_y = float(ratios[idx]), float(ys[idx])

    if 0 < idx < len(ys) - 1 and ys[idx] < S:  # interior: refine
        lo, hi = float(ys[idx - 1]), float(ys[idx + 1])
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = _ratio_at(strategy, c), _ratio_at(strategy, d)
        tol_y = 1e-7 * max(1.0, S)
        while b - a > tol_y:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = _ratio_at(strategy, c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = _ratio_at(strategy, d)
        y_ref = c if fc > fd else d
        f_ref = max(fc, fd)
        if f_ref > best:
            best, best_y = f_ref, y_ref
    return best, best_y


def abort_density_comparison(B: float) -> tuple[float, float]:
    """Endpoint densities at ``x = B`` of the two k=2 mean-aware strategies.

    Returns ``(ln2/(B(ln4-1)), (e-1)/(B(e-2)))`` evaluated through the
    strategy objects and asserts the requestor-wins value is the smaller
    one (it grants the full grace less often).
    """
    rw = make_strategy(
        StrategySpec(ConflictMode.REQUESTOR_WINS, 2, B, Variant.RANDOMIZED_CONSTRAINED, mu=0.0)
    )
    ra = make_strategy(
        StrategySpec(ConflictMode.REQUESTOR_ABORTS, 2, B, Variant.RANDOMIZED_CONSTRAINED, mu=0.0)
    )
    rw_at_b, ra_at_b = rw.pdf(B), ra.pdf(B)
    if not rw_at_b < ra_at_b:
        raise AssertionError(
            f"expected requestor-wins endpoint density below requestor-aborts, "
            f"got {rw_at_b} >= {ra_at_b}"
        )
    return rw_at_b, ra_at_b


# -- optimality probe ---------------------------------------------------


def _min_dual_objective(ys: np.ndarray, rs: np.ndarray, mu: float) -> float:
    """Minimize ``l1 + l2*mu`` over lines ``l1 + l2*y >= r(y)``, ``l1,l2 >= 0``."""
    best = float(np.max(rs))  # l2 = 0
    best = min(best, mu * float(np.max(rs / ys)))  # l1 = 0
    order = np.argsort(ys)
    pts = list(zip(ys[order].tolist(), rs[order].tolist()))
    hull: list[tuple[float, float]] = []
    for p in pts:  # upper concave hull, left to right
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    for (x1, r1), (x2, r2) in zip(hull, hull[1:]):
        l2 = (r2 - r1) / (x2 - x1)
        l1 = r1 - l2 * x1
        if l2 >= 0.0 and l1 >= 0.0:
            best = min(best, l1 + l2 * mu)
    return best


def _profile_objective(
    mesh: np.ndarray, pdf_vals: np.ndarray, mode: ConflictMode, k: int, B: float,
    ys: np.ndarray, mu: float | None,
) -> float:
    ratios = costmodel.mesh_expected_costs(mode, k, B, mesh, pdf_vals, ys) / ((k - 1) * ys)
    if mu is None:
        return float(np.max(ratios))
    return _min_dual_objective(ys, ratios, mu)


def optimality_probe(
    strategy: GracePeriodStrategy,
    n_perturbations: int,
    stream: Stream,
    tol: float = PROBE_TOL,
) -> ProbeResult:
    """Smoke-test of optimality: no bump perturbation may beat the strategy.

    Mixes the density with random raised-cosine bumps (renormalized on a
    shared mesh) and compares objectives: the worst-case ratio over point
    adversaries for unconstrained strategies, or the best achievable dual
    objective ``min l1 + l2*mu`` over linear majorants of the ratio profile
    for mean-aware ones.  Fails when any perturbation improves the objective
    by more than ``tol``.
    """
    if strategy.kind is not StrategyKind.CONTINUOUS_PDF:
        raise ValueError("the optimality probe applies to continuous strategies")
    spec = strategy.spec
    S = strategy.support_max
    mu = spec.mu if strategy.mean_aware else None

    mesh = np.linspace(0.0, S, 8193)
    base_pdf = strategy.pdf(mesh)
    base_pdf = base_pdf / np.trapezoid(base_pdf, mesh)
    ys = np.linspace(S / 512, S, 512)
    base_obj = _profile_objective(mesh, base_pdf, spec.mode, spec.k, spec.B, ys, mu)

    best_obj = math.inf
    for _ in range(n_perturbations):
        center = stream.uniform() * S
        width = (0.05 + 0.20 * stream.uniform()) * S
        weight = 0.05 + 0.30 * stream.uniform()
        arg = np.clip((mesh - center) / width, -1.0, 1.0)
        bump = 1.0 + np.cos(math.pi * arg)
        bump_mass = np.trapezoid(bump, mesh)
        if bump_mass <= 0.0:
            continue
        mixed = (1.0 - weight) * base_pdf + weight * bump / bump_mass
        mixed = mixed / np.trapezoid(mixed, mesh)
        obj = _profile_objective(mesh, mixed, spec.mode, spec.k, spec.B, ys, mu)
        best_obj = min(best_obj, obj)

    improvement = base_obj - best_obj
    return ProbeResult(improvement <= tol, base_obj, best_obj, improvement)


# -- the full machine-readable suite -------------------------------------

_RW = ConflictMode.REQUESTOR_WINS
_RA = ConflictMode.REQUESTOR_ABORTS


def _check(name, passed, **details):
    entry = {"name": name, "passed": bool(passed)}
    entry.update(details)
    return entry


def _normalization_checks() -> list[dict]:
    checks = []
    for k in (2, 3, 5, 10):
        for B in (10.0, 200.0, 2000.0):
            cells: list[tuple[str, StrategySpec]] = [
                (f"rw_unconstrained_k{k}_B{B:g}",
                 StrategySpec(_RW, k, B, Variant.RANDOMIZED_UNCONSTRAINED)),
                (f"ra_unconstrained_k{k}_B{B:g}",
                 StrategySpec(_RA, k, B, Variant.RANDOMIZED_UNCONSTRAINED)),
            ]
            for frac in (0.1, 0.5, 2.0):
                mu = frac * B
                cells.append((
                    f"rw_constrained_k{k}_B{B:g}_mu{mu:g}",
                    StrategySpec(_RW, k, B, Variant.RANDOMIZED_CONSTRAINED, mu=mu),
                ))
                cells.append((
                    f"ra_constrained_k{k}_B{B:g}_mu{mu:g}",
                    StrategySpec(_RA, k, B, Variant.RANDOMIZED_CONSTRAINED, mu=mu),
                ))
            for name, spec in cells:
                res = verify_pdf(make_strategy(spec))
                checks.append(_check(
                    f"normalization/{name}", res.passed,
                    residual=res.normalization_error, min_density=res.min_density,
                    tolerance=NORMALIZATION_TOL,
                ))
    for B in (3, 10, 100):
        spec = StrategySpec(_RA, 2, float(B), Variant.DISCRETE_CLASSIC)
        res = verify_pdf(make_strategy(spec))
        checks.append(_check(
            f"normalization/discrete_classic_B{B}", res.passed,
            residual=res.normalization_error, min_density=res.min_density,
            tolerance=NORMALIZATION_TOL,
        ))
    return checks


def _negative_control_checks() -> list[dict]:
    # ln((B+x)/x) in place of ln((B+x)/B): integrates to 1 + ln(B)/(ln4-1).
    B = 10.0
    c = B * (2.0 * math.log(2.0) - 1.0)
    spec = StrategySpec(_RW, 2, B, Variant.RANDOMIZED_UNCONSTRAINED)
    wrong = custom_continuous(spec, lambda x: math.log((B + x) / max(x, 1e-12)) / c)
    res = verify_pdf(wrong)
    return [_check(
        "negative_control/wrong_form_rw_constrained_detected", not res.passed,
        residual=res.normalization_error, tolerance=NORMALIZATION_TOL,
        note="malformed density must fail normalization",
    )]


def _identity_checks() -> list[dict]:
    checks = []
    for mode, tag in ((_RW, "rw"), (_RA, "ra")):
        for k in (2, 3, 5):
            for B in (10.0, 100.0):
                uspec = StrategySpec(mode, k, B, Variant.RANDOMIZED_UNCONSTRAINED)
                if mode is _RW and k >= 3:
                    # the power-form equalizer, reached as the constrained fallback
                    strat = make_strategy(
                        StrategySpec(mode, k, B, Variant.RANDOMIZED_CONSTRAINED, mu=10.0 * B)
                    )
                else:
                    strat = make_strategy(uspec)
                lam = lagrange_corner(mode, k, B, constrained=False)
                res = lagrange_identity_check(strat, *lam)
                checks.append(_check(
                    f"lagrange/{tag}_unconstrained_k{k}_B{B:g}", res.passed,
                    max_residual=res.max_residual,
                    point_mass_residual=res.point_mass_residual, tolerance=IDENTITY_TOL,
                ))

                mu = 0.5 * _constrained_mu_threshold(mode, k, B)
                cspec = StrategySpec(mode, k, B, Variant.RANDOMIZED_CONSTRAINED, mu=mu)
                cstrat = make_strategy(cspec)
                lam = lagrange_corner(mode, k, B, constrained=True)
                res = lagrange_identity_check(cstrat, *lam)
                checks.append(_check(
                    f"lagrange/{tag}_constrained_k{k}_B{B:g}", res.passed,
                    max_residual=res.max_residual,
                    point_mass_residual=res.point_mass_residual, tolerance=IDENTITY_TOL,
                ))
    return checks


def _constrained_mu_threshold(mode: ConflictMode, k: int, B: float) -> float:
    """Largest mean for which the constrained form is selected."""
    lo, hi = 0.0, 10.0 * B * k
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        spec = StrategySpec(mode, k, B, Variant.RANDOMIZED_CONSTRAINED, mu=mid)
        if threshold_condition(spec):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _worst_case_checks() -> list[dict]:
    checks = []
    for B in (10.0, 200.0, 2000.0):
        strat = make_strategy(StrategySpec(_RW, 2, B, Variant.RANDOMIZED_UNCONSTRAINED))
        ratio, _ = worst_case_ratio(strat)
        checks.append(_check(
            f"worst_case/rw_uniform_k2_B{B:g}", abs(ratio - 2.0) < 1e-4,
            value=ratio, expected=2.0, tolerance=1e-4,
        ))
    for k in (2, 3, 5, 10):
        strat = make_strategy(StrategySpec(_RW, k, 100.0, Variant.DETERMINISTIC))
        ratio, arg = worst_case_ratio(strat)
        expected = 2.0 + 1.0 / (k - 1)
        checks.append(_check(
            f"worst_case/det_k{k}", abs(ratio - expected) < 1e-4,
            value=ratio, expected=expected, argmax=arg, tolerance=1e-4,
        ))
    strat = make_strategy(StrategySpec(_RA, 2, 100.0, Variant.DISCRETE_CLASSIC))
    ratio, arg = worst_case_ratio(strat)
    bound = math.e / (math.e - 1.0) + 1e-3
    checks.append(_check(
        "worst_case/ra_discrete_classic_B100_upper_bound", ratio <= bound,
        value=ratio, bound=bound, argmax=arg,
        note="day-granular equalized ratio 1/(1-(1-1/B)^B) stays below the continuous limit",
    ))
    for k in (3, 5):
        strat = make_strategy(StrategySpec(_RA, k, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
        ratio, _ = worst_case_ratio(strat)
        e1 = math.exp(1.0 / (k - 1))
        expected = e1 / (e1 - 1.0)
        checks.append(_check(
            f"worst_case/ra_general_k{k}", abs(ratio - expected) < 1e-4,
            value=ratio, expected=expected, tolerance=1e-4,
        ))
    return checks


def _probe_checks(seed: int) -> list[dict]:
    checks = []
    rw = make_strategy(StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
    res = optimality_probe(rw, 200, Stream(seed).spawn("probe", "rw"))
    checks.append(_check(
        "probe/rw_uniform_k2", res.passed,
        base_objective=res.base_objective, best_improvement=res.best_improvement,
        tolerance=PROBE_TOL,
    ))
    ra = make_strategy(StrategySpec(_RA, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
    res = optimality_probe(ra, 200, Stream(seed).spawn("probe", "ra"))
    checks.append(_check(
        "probe/ra_exponential_k2", res.passed,
        base_objective=res.base_objective, best_improvement=res.best_improvement,
        tolerance=PROBE_TOL,
    ))
    # control: mass squeezed onto [0, B/2] must be improvable (ratio ~3 at y ~ B/2)
    B = 100.0
    spec = StrategySpec(_RW, 2, B, Variant.RANDOMIZED_UNCONSTRAINED)
    squeezed = custom_continuous(spec, lambda x: 2.0 / B if x <= B / 2.0 else 0.0)
    res = optimality_probe(squeezed, 200, Stream(seed).spawn("probe", "control"))
    checks.append(_check(
        "probe/suboptimal_control_detected", not res.passed,
        base_objective=res.base_objective, best_improvement=res.best_improvement,
        note="probe must find improvements over the squeezed density",
    ))
    return checks


def _cdf_quadrature_checks() -> list[dict]:
    checks = []
    cases = [
        ("rw_uniform", StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
        ("rw_log", StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=10.0)),
        ("rw_shifted_power", StrategySpec(_RW, 4, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1.0)),
        ("rw_power", StrategySpec(_RW, 4, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1000.0)),
        ("ra_exp", StrategySpec(_RA, 3, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
        ("ra_expm1", StrategySpec(_RA, 3, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1.0)),
    ]
    for name, spec in cases:
        strat = make_strategy(spec)
        S = strat.support_max
        worst = 0.0
        for frac in (0.125, 0.375, 0.625, 0.875, 1.0):
            x = frac * S
            worst = max(worst, abs(strat.cdf(x) - adaptive_simpson(strat.pdf, 0.0, x)))
        checks.append(_check(
            f"cdf_vs_quadrature/{name}", worst < 1e-8, residual=worst, tolerance=1e-8,
        ))
    return checks


def run_verification_suite(seed: int = 20240405) -> dict:
    """Full oracle grid; returns a JSON-serializable report."""
    checks: list[dict] = []
    checks.extend(_normalization_checks())
    checks.extend(_negative_control_checks())
    checks.extend(_identity_checks())
    checks.extend(_worst_case_checks())
    checks.extend(_probe_checks(seed))
    checks.extend(_cdf_quadrature_checks())
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
