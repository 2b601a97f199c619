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
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import costmodel
from .quadrature import adaptive_simpson
from .rng import Stream, stream
from .strategy import (
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    custom_continuous,
    lagrange_corner,
    make_strategy,
    mean_threshold,
)

NORMALIZATION_TOL = 1e-6
DENSITY_FLOOR = -1e-12
IDENTITY_TOL = 1e-9
WORST_CASE_TOL = 1e-9
PROBE_TOL = 1e-4
_PROBE_BLOCK = 16  # bump mixtures costed at once; bounds the (block, 512) temporaries
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
        ys = np.arange(1.0, int(strategy.spec.B) + 2.0)
    elif strategy.kind is StrategyKind.ATOM:
        x0 = strategy.params["x0"]
        ys = costmodel.sorted_unique(np.concatenate([
            np.linspace(S / n_grid, S, n_grid), [x0, 0.5 * x0, 1.5 * S]
        ]))
    else:
        head = np.geomspace(S * 1e-6, S / n_grid, 32)
        ys = costmodel.sorted_unique(
            np.concatenate([head, np.linspace(S / n_grid, S, n_grid), [1.5 * S]])
        )
    ratios = [r for _, r in costmodel.ratio_profile(strategy, ys)]
    idx = int(np.argmax(ratios))
    best, best_y = float(ratios[idx]), float(ys[idx])

    if strategy.kind is StrategyKind.CONTINUOUS_PDF and 0 < idx < len(ys) - 1 and ys[idx] < S:
        def ratio_at(y):  # refine an interior argmax
            return costmodel.ratio_profile(strategy, [y])[0][1]

        lo, hi = float(ys[idx - 1]), float(ys[idx + 1])
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = ratio_at(c), ratio_at(d)
        tol_y = 1e-7 * max(1.0, S)
        while b - a > tol_y:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = ratio_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = ratio_at(d)
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


def _bump_costs(mode: ConflictMode, k: int, B: float, S: float, centers, widths, ys):
    """``(costs, mass)`` of the raised cosine ``1 + cos(pi*(x-c)/w)`` on
    ``[max(c-w, 0), min(c+w, S)]`` at each adversary point ``y``, exactly.

    With ``a = pi/w``, the mass and first moment of the bump up to ``x`` are
    differences of ``F(x) = x + sin(a(x-c))/a`` and
    ``M(x) = x^2/2 + x*sin(a(x-c))/a + cos(a(x-c))/a^2``, read at ``y``
    clipped to the bump.  ``centers``, ``widths`` and ``ys`` broadcast.
    """
    a = np.pi / widths
    lo = np.maximum(centers - widths, 0.0)
    hi = np.minimum(centers + widths, S)

    def antiderivatives(x):
        t = a * (x - centers)
        sin_a = np.sin(t) / a
        return x + sin_a, 0.5 * x * x + x * sin_a + np.cos(t) / (a * a)

    f_lo, m_lo = antiderivatives(lo)
    f_y, m_y = antiderivatives(np.clip(ys, lo, hi))
    mass = antiderivatives(hi)[0] - f_lo
    return costmodel.moment_costs(mode, k, B, ys, f_y - f_lo, m_y - m_lo, mass), mass


def _probe_objectives(
    strategy: GracePeriodStrategy, n_perturbations: int, stream: Stream
) -> tuple[float, list[float]]:
    """The strategy's objective and that of each bump mixture.

    The cost is linear in the density, so a mixture
    ``(1-w)*base + (w/m)*bump`` costs ``(1-w)*C_base + (w/m)*C_bump``.
    ``C_base`` is the exact :func:`costmodel.batch_expected_costs`, taken
    before any draw, so a density it cannot cost raises with the stream
    untouched; ``C_bump`` and the bump mass ``m`` are closed forms
    (:func:`_bump_costs`), ``_PROBE_BLOCK`` perturbations at a time.
    """
    if strategy.kind is not StrategyKind.CONTINUOUS_PDF:
        raise ValueError("the optimality probe applies to continuous strategies")
    spec = strategy.spec
    S = strategy.support_max
    mu = spec.mu if strategy.mean_aware else None

    ys = np.linspace(S / 512, S, 512)
    opts = (spec.k - 1) * ys  # the waiters' commit cost is also the optimum

    def objectives(costs):  # one per row
        ratios = np.atleast_2d(costs / opts)
        if mu is None:
            return ratios.max(axis=1).tolist()
        return [_min_dual_objective(ys, row, mu) for row in ratios]

    base_costs = costmodel.batch_expected_costs(strategy, ys)
    draws = stream.uniform_batch(3 * n_perturbations).reshape(n_perturbations, 3)
    centers = draws[:, :1] * S
    widths = (0.05 + 0.20 * draws[:, 1:2]) * S
    weights = 0.05 + 0.30 * draws[:, 2:]
    out: list[float] = []
    for i in range(0, n_perturbations, _PROBE_BLOCK):
        c, w, weight = (col[i : i + _PROBE_BLOCK] for col in (centers, widths, weights))
        bump_costs, bump_mass = _bump_costs(spec.mode, spec.k, spec.B, S, c, w, ys)
        out += objectives((1.0 - weight) * base_costs + (weight / bump_mass) * bump_costs)
    return objectives(base_costs)[0], out


def optimality_probe(
    strategy: GracePeriodStrategy,
    n_perturbations: int,
    stream: Stream,
    tol: float = PROBE_TOL,
) -> ProbeResult:
    """Smoke-test of optimality: no bump perturbation may beat the strategy.

    Mixes the density with random raised-cosine bumps, every part costed
    exactly, and compares objectives: the worst-case ratio over point
    adversaries for unconstrained strategies, or the best achievable dual
    objective ``min l1 + l2*mu`` over linear majorants of the ratio profile
    for mean-aware ones.  Fails when any perturbation improves the objective
    by more than ``tol``.  Draws ``3 * n_perturbations`` uniforms; a
    ``custom`` density, which has no exact cost, raises a ValueError first.
    """
    base_obj, objectives = _probe_objectives(strategy, n_perturbations, stream)
    best_obj = min(objectives, default=math.inf)
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

                mu = 0.5 * mean_threshold(mode, k, B)
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
    for k in (3, 5):
        strat = make_strategy(StrategySpec(_RA, k, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
        ratio, _ = worst_case_ratio(strat)
        e1 = math.exp(1.0 / (k - 1))
        expected = e1 / (e1 - 1.0)
        checks.append(_check(
            f"worst_case/ra_general_k{k}", abs(ratio - expected) < WORST_CASE_TOL,
            value=ratio, expected=expected, tolerance=WORST_CASE_TOL,
        ))
    return checks


def _probe_checks(seed: int) -> list[dict]:
    checks = []
    rw = make_strategy(StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
    res = optimality_probe(rw, 200, stream(seed, "probe", "rw"))
    checks.append(_check(
        "probe/rw_uniform_k2", res.passed,
        base_objective=res.base_objective, best_improvement=res.best_improvement,
        tolerance=PROBE_TOL,
    ))
    ra = make_strategy(StrategySpec(_RA, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
    res = optimality_probe(ra, 200, stream(seed, "probe", "ra"))
    checks.append(_check(
        "probe/ra_exponential_k2", res.passed,
        base_objective=res.base_objective, best_improvement=res.best_improvement,
        tolerance=PROBE_TOL,
    ))
    # control: the classic ski-rental density judged under requestor wins,
    # whose worst ratio 1 + 2/(e-1) exceeds the requestor-wins optimum 2
    classic = replace(ra, spec=StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
    res = optimality_probe(classic, 200, stream(seed, "probe", "control"))
    checks.append(_check(
        "probe/suboptimal_control_detected", not res.passed,
        base_objective=res.base_objective, best_improvement=res.best_improvement,
        note="probe must improve on the requestor-aborts density under requestor wins",
    ))
    return checks


# one strategy per closed-form family, for the checks against quadrature
_QUADRATURE_CASES = [
    ("rw_uniform", StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
    ("rw_log", StrategySpec(_RW, 2, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=10.0)),
    ("rw_shifted_power", StrategySpec(_RW, 4, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1.0)),
    ("rw_power", StrategySpec(_RW, 4, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1000.0)),
    ("ra_exp", StrategySpec(_RA, 3, 100.0, Variant.RANDOMIZED_UNCONSTRAINED)),
    ("ra_expm1", StrategySpec(_RA, 3, 100.0, Variant.RANDOMIZED_CONSTRAINED, mu=1.0)),
]
_QUADRATURE_FRACTIONS = (0.125, 0.375, 0.625, 0.875, 1.0)


def _quadrature_checks() -> list[dict]:
    """Each family's closed-form cdf, then the partial moments the expected
    costs rest on, against quadrature."""
    cdf_checks, moment_checks = [], []
    for name, spec in _QUADRATURE_CASES:
        strat = make_strategy(spec)
        S = strat.support_max
        cdf_worst = moment_worst = 0.0
        for frac in _QUADRATURE_FRACTIONS:
            x = frac * S
            cdf_worst = max(cdf_worst, abs(strat.cdf(x) - adaptive_simpson(strat.pdf, 0.0, x)))
            integral = adaptive_simpson(lambda t, s=strat: t * s.pdf(t), 0.0, x)
            moment_worst = max(moment_worst, abs(strat.moment(x) - integral))
        cdf_checks.append(_check(
            f"cdf_vs_quadrature/{name}", cdf_worst < 1e-8, residual=cdf_worst, tolerance=1e-8,
        ))
        residual = moment_worst / strat.moment(S)
        moment_checks.append(_check(
            f"moment_vs_quadrature/{name}", residual < 1e-8, residual=residual, tolerance=1e-8,
        ))
    return cdf_checks + moment_checks


def run_verification_suite(seed: int = 20240405) -> dict:
    """Full oracle grid; returns a JSON-serializable report."""
    checks: list[dict] = []
    checks.extend(_normalization_checks())
    checks.extend(_negative_control_checks())
    checks.extend(_identity_checks())
    checks.extend(_worst_case_checks())
    checks.extend(_probe_checks(seed))
    checks.extend(_quadrature_checks())
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
