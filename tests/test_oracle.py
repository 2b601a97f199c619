import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from graceperiod.costmodel import conflict_cost, ratio_profile
from graceperiod.oracle import (
    ProbeResult,
    _min_dual_objective,
    _bump_costs,
    _probe_objectives,
    abort_density_comparison,
    lagrange_identity_check,
    optimality_probe,
    run_verification_suite,
    verify_pdf,
    worst_case_ratio,
)


def costmodel_ratio(strategy, y):
    [(_, r)] = ratio_profile(strategy, [y])
    return r
from graceperiod.quadrature import adaptive_simpson
from graceperiod.rng import stream
from graceperiod.strategy import (
    ConflictMode,
    StrategySpec,
    Variant,
    competitive_ratio,
    custom_continuous,
    lagrange_corner,
    make_strategy,
)

RW = ConflictMode.REQUESTOR_WINS
RA = ConflictMode.REQUESTOR_ABORTS
UNC = Variant.RANDOMIZED_UNCONSTRAINED
CON = Variant.RANDOMIZED_CONSTRAINED

# the classic ski-rental density judged under requestor wins: its worst ratio
# 1 + 2/(e-1) exceeds the requestor-wins optimum 2
CLASSIC_UNDER_RW = replace(
    make_strategy(StrategySpec(RA, 2, 100.0, UNC)), spec=StrategySpec(RW, 2, 100.0, UNC)
)
CLASSIC_UNDER_RW_RATIO = 1.0 + 2.0 / (math.e - 1.0)


class TestVerifyPdf:
    def test_uniform(self):
        res = verify_pdf(make_strategy(StrategySpec(RW, 2, 100.0, UNC)))
        assert res.passed
        assert res.normalization_error < 1e-12
        assert res.min_density == pytest.approx(0.01)

    def test_constrained_fallback_regime(self):
        # low fixed cost relative to the mean: unconstrained form is selected
        strat = make_strategy(StrategySpec(RW, 2, 200.0, CON, mu=500.0))
        res = verify_pdf(strat)
        assert res.passed and res.normalization_error < 1e-9

    def test_ra_general_constrained(self):
        res = verify_pdf(make_strategy(StrategySpec(RA, 5, 100.0, CON, mu=5.0)))
        assert res.passed and res.normalization_error < 1e-6

    def test_wrong_form_detected(self):
        B = 10.0
        c = B * (2.0 * math.log(2.0) - 1.0)
        wrong = custom_continuous(
            StrategySpec(RW, 2, B, UNC),
            lambda x: math.log((B + x) / max(x, 1e-12)) / c,
        )
        res = verify_pdf(wrong)
        assert not res.passed
        # the malformed form integrates to 1 + ln(B)/(ln4-1) on [0, B], so the
        # residual is gross, far beyond any quadrature wobble near x = 0
        assert res.normalization_error > 1.0

    def test_atom_rejected(self):
        with pytest.raises(ValueError):
            verify_pdf(make_strategy(StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC)))


class TestLagrangeIdentity:
    def test_rw_unconstrained_corner(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        res = lagrange_identity_check(strat, 2.0, 0.0)
        assert res.passed and res.max_residual < 1e-9

    def test_rw_constrained_corner(self):
        B = 100.0
        strat = make_strategy(StrategySpec(RW, 2, B, CON, mu=10.0))
        lam2 = 1.0 / (2.0 * B * (2.0 * math.log(2.0) - 1.0))
        res = lagrange_identity_check(strat, 1.0, lam2)
        assert res.passed and res.max_residual < 1e-6

    def test_ra_k3_constrained_corner(self):
        B = 100.0
        strat = make_strategy(StrategySpec(RA, 3, B, CON, mu=1.0))
        g = 2.0 * (math.exp(0.5) - 1.0) - 1.0
        res = lagrange_identity_check(strat, 1.0, 2.0 / (2.0 * B * g))
        assert res.passed and res.max_residual < 1e-6

    def test_wrong_corner_fails(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        res = lagrange_identity_check(strat, 1.5, 0.0)
        assert not res.passed


class TestWorstCaseRatio:
    def test_rw_uniform_flat_two(self):
        for B in (10.0, 200.0, 2000.0):
            ratio, _ = worst_case_ratio(make_strategy(StrategySpec(RW, 2, B, UNC)))
            assert ratio == pytest.approx(2.0, abs=1e-4)

    def test_det_plateau(self):
        ratio, argmax = worst_case_ratio(
            make_strategy(StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC))
        )
        assert ratio == pytest.approx(3.0, abs=1e-9)
        assert argmax == pytest.approx(100.0)

    def test_discrete_classic_bounded_by_continuous_limit(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC))
        ratio, _ = worst_case_ratio(strat)
        assert ratio <= math.e / (math.e - 1.0) + 1e-3
        # the exact day-granular value
        assert ratio == pytest.approx(1.0 / (1.0 - 0.99 ** 100), rel=1e-9)

    def test_ra_general(self):
        for k in (3, 5):
            ratio, _ = worst_case_ratio(
                make_strategy(StrategySpec(RA, k, 100.0, UNC))
            )
            e1 = math.exp(1.0 / (k - 1))
            assert ratio == pytest.approx(e1 / (e1 - 1.0), abs=1e-4)

    def test_grid_of_unconstrained_strategies_respects_theory(self):
        # every unconstrained strategy in the grid stays within its claimed
        # worst-case ratio
        for k in (2, 3, 5, 10):
            for B in (10.0, 200.0, 2000.0):
                specs = [
                    StrategySpec(RW, k, B, UNC),
                    StrategySpec(RA, k, B, UNC),
                    StrategySpec(RW, k, B, Variant.DETERMINISTIC),
                ]
                if k >= 3:
                    specs.append(StrategySpec(RW, k, B, CON, mu=100.0 * B))
                for spec in specs:
                    from graceperiod.strategy import competitive_ratio

                    strat = make_strategy(spec)
                    bound = competitive_ratio(spec).theoretical_ratio
                    ratio, _ = worst_case_ratio(strat, n_grid=500)
                    assert ratio <= bound + 1e-4, (spec, ratio, bound)

    def test_suboptimal_strategy_exceeds_two(self):
        ratio, _ = worst_case_ratio(CLASSIC_UNDER_RW)
        assert ratio == pytest.approx(CLASSIC_UNDER_RW_RATIO, rel=0.0, abs=1e-9)


class TestOptimalityProbe:
    def test_rw_uniform_passes(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        assert optimality_probe(strat, 200, stream(5, "p1"))

    def test_ra_exponential_passes(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, UNC))
        assert optimality_probe(strat, 200, stream(5, "p2"))

    def test_constrained_passes(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, CON, mu=10.0))
        assert optimality_probe(strat, 200, stream(5, "p3"))

    def test_suboptimal_control_fails(self):
        res = optimality_probe(CLASSIC_UNDER_RW, 200, stream(5, "p4"))
        assert not res.passed
        assert res.base_objective > 2.0  # ratio above two is what gets improved

    def test_custom_density_is_refused(self):
        # a pdf alone has no exact cost; the probe refuses it before drawing
        strat = custom_continuous(StrategySpec(RW, 2, 100.0, UNC), lambda x: 0.01)
        with pytest.raises(ValueError, match="custom"):
            worst_case_ratio(strat)
        s = stream(5, "p5")
        before = s._state
        with pytest.raises(ValueError, match="custom"):
            optimality_probe(strat, 200, s)
        assert s._state == before

    @pytest.mark.parametrize("family, spec", [
        ("uniform", StrategySpec(RW, 2, 100.0, UNC)),
        ("ra_exp", StrategySpec(RA, 2, 100.0, UNC)),
        ("ra_exp", StrategySpec(RA, 3, 100.0, UNC)),
        ("ra_exp", StrategySpec(RA, 10, 100.0, UNC)),
        ("rw_log", StrategySpec(RW, 2, 100.0, CON, mu=10.0)),
        ("ra_expm1", StrategySpec(RA, 2, 100.0, CON, mu=10.0)),
        ("ra_expm1", StrategySpec(RA, 3, 100.0, CON, mu=1.0)),
        ("rw_shifted_power", StrategySpec(RW, 4, 100.0, CON, mu=1.0)),
        ("rw_shifted_power", StrategySpec(RW, 10, 100.0, CON, mu=1.0)),
        ("rw_power", StrategySpec(RW, 4, 100.0, CON, mu=1000.0)),
        ("rw_power", StrategySpec(RW, 10, 100.0, CON, mu=1000.0)),
    ])
    def test_base_objective_is_the_theoretical_ratio(self, family, spec):
        # the base density is costed exactly, so its objective is the
        # paper's ratio to rounding at every k, whatever grid the ys fall on
        strat = make_strategy(spec)
        assert strat.family == family
        res = optimality_probe(strat, 0, stream(1))
        assert res.base_objective == pytest.approx(
            competitive_ratio(spec).theoretical_ratio, rel=0.0, abs=1e-12
        )

    def test_atom_rejected(self):
        with pytest.raises(ValueError):
            optimality_probe(
                make_strategy(StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC)),
                10, stream(1),
            )


def reference_optimality_probe(strategy, n_perturbations, stream, tol=1e-4):
    """The probe loop with a full-width bump, renormalized and swept per perturbation.

    Returns the probe result and each perturbation's objective (``inf`` if
    skipped), which ``optimality_probe`` must match to rounding.
    """
    spec, S = strategy.spec, strategy.support_max
    k = spec.k
    mu = spec.mu if strategy.mean_aware else None

    def cumulative(f):
        return np.concatenate([[0.0], np.cumsum(np.diff(mesh) * 0.5 * (f[1:] + f[:-1]))])

    def objective(pdf_vals):
        cum_mass = cumulative(pdf_vals)
        cum_abort = cumulative(conflict_cost(spec.mode, k, spec.B, mesh, mesh) * pdf_vals)
        idx = np.searchsorted(mesh, np.clip(ys, 0.0, mesh[-1]))
        costs = cum_abort[idx] + (k - 1) * ys * (cum_mass[-1] - cum_mass[idx])
        ratios = costs / ((k - 1) * ys)
        return float(np.max(ratios)) if mu is None else _min_dual_objective(ys, ratios, mu)

    mesh = np.linspace(0.0, S, 8193)
    base_pdf = strategy.pdf(mesh)
    base_pdf = base_pdf / np.trapezoid(base_pdf, mesh)
    ys = np.linspace(S / 512, S, 512)
    base_obj = objective(base_pdf)
    objectives = []
    for _ in range(n_perturbations):
        center = stream.uniform() * S
        width = (0.05 + 0.20 * stream.uniform()) * S
        weight = 0.05 + 0.30 * stream.uniform()
        bump = 1.0 + np.cos(math.pi * np.clip((mesh - center) / width, -1.0, 1.0))
        bump_mass = np.trapezoid(bump, mesh)
        if bump_mass <= 0.0:
            objectives.append(math.inf)
            continue
        mixed = (1.0 - weight) * base_pdf + weight * bump / bump_mass
        mixed = mixed / np.trapezoid(mixed, mesh)
        objectives.append(objective(mixed))
    best_obj = min(objectives, default=math.inf)
    improvement = base_obj - best_obj
    return ProbeResult(improvement <= tol, base_obj, best_obj, improvement), objectives


class TestProbeByLinearity:
    """Each bump mixture is costed as ``(1-w)*C_base + (w/m)*C_bump`` with an
    exact base and a closed-form bump; it matches a full-width, renormalized
    mesh probe to that mesh's own error, on the same draws."""

    def test_bump_costs_match_quadrature(self):
        rng = np.random.default_rng(13)
        S = 100.0
        n = 1200  # 200 per (mode, k)
        centers = rng.uniform(0.0, S, n)
        # from a twentieth of the probe's narrowest bump to wider than the
        # support, so windows hang over 0, over S, or both
        widths = S * np.exp(rng.uniform(math.log(0.0025), math.log(1.5), n))
        ys = rng.uniform(0.0, S, n)
        assert (centers < widths).sum() > 100 and (centers + widths > S).sum() > 100
        assert ((centers < widths) & (centers + widths > S)).sum() > 50
        combos = [(mode, k) for mode in (RW, RA) for k in (2, 3, 10)]
        for i, (c, w, y) in enumerate(zip(centers.tolist(), widths.tolist(), ys.tolist())):
            mode, k = combos[i % len(combos)]
            costs, mass = _bump_costs(mode, k, 100.0, S, c, w, y)
            lo, hi = max(c - w, 0.0), min(c + w, S)
            x_y = min(max(y, lo), hi)

            def bump(x, c=c, w=w):
                return 1.0 + np.cos(math.pi * (x - c) / w)

            def abort(x, mode=mode, k=k, bump=bump):
                return conflict_cost(mode, k, 100.0, x, x) * bump(x)

            def quad(f, a, b):  # split at y and at the bump's ends
                return adaptive_simpson(f, a, b, rel_tol=1e-13)

            below, above = quad(bump, lo, x_y), quad(bump, x_y, hi)
            ref = quad(abort, lo, x_y) + (k - 1) * y * above
            assert abs(mass - (below + above)) <= 1e-10 * (below + above), (c, w, y)
            assert abs(costs - ref) <= 1e-10 * ref, (mode, k, c, w, y)

    @pytest.mark.parametrize("S", [1e-3, 100.0, 2000.0 / 3.0, 1e6])
    def test_edge_draws_have_positive_mass(self, S):
        # the probe's draws put c in [0, S) and w in [0.05 S, 0.25 S]; at the
        # extreme uniforms the bump still has mass, so no mixture divides by 0
        extremes = np.array([0.0, 1.0 - 2.0**-53])
        centers = extremes[:, None] * S
        widths = (0.05 + 0.20 * extremes[None, :]) * S
        assert centers[-1, 0] < S
        _, mass = _bump_costs(RW, 2, 100.0, S, centers, widths, S)
        assert mass.shape == (2, 2) and (mass > 0.0).all(), mass

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name, strat", [
        ("uniform", make_strategy(StrategySpec(RW, 2, 100.0, UNC))),
        ("ra_exp", make_strategy(StrategySpec(RA, 2, 100.0, UNC))),
        ("rw_log", make_strategy(StrategySpec(RW, 2, 100.0, CON, mu=10.0))),
        ("ra_expm1", make_strategy(StrategySpec(RA, 3, 100.0, CON, mu=1.0))),
        ("control", CLASSIC_UNDER_RW),
    ])
    def test_probe_matches_reference(self, name, strat, seed):
        # the reference reads its mesh one cell late at a y off the nodes,
        # 0.8% off at k = 4, so these families stay at k <= 3; the base
        # objective is held exactly by test_base_objective_is_the_theoretical_ratio
        assert strat.family == ("ra_exp" if name == "control" else name)
        got = optimality_probe(strat, 200, stream(seed, "probe", name))
        ref, ref_objectives = reference_optimality_probe(
            strat, 200, stream(seed, "probe", name)
        )
        assert got.passed is ref.passed is (name != "control")
        # every perturbation, not only the best one
        _, objectives = _probe_objectives(strat, 200, stream(seed, "probe", name))
        assert min(objectives) == got.best_perturbed_objective
        assert len(objectives) == len(ref_objectives) == 200
        # the reference costs each mixture on an 8193-point trapezoid mesh,
        # whose O(h^2) error (measured up to 1.9e-6 here) sets the tolerance;
        # test_bump_costs_match_quadrature holds the closed form to 1e-10
        np.testing.assert_allclose(objectives, ref_objectives, rtol=1e-5, atol=0.0)

    def test_probe_peak_memory(self):
        # _PROBE_BLOCK rows of 512 points at a time; one (200, 512) block
        # peaks near 6 MB
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        s = stream(3, "probe", "rw")
        tracemalloc.start()
        try:
            optimality_probe(strat, 200, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak

    @pytest.mark.parametrize("n", [1, 200])
    def test_draws_three_uniforms_per_perturbation(self, n):
        probed, scalar = stream(3, "probe", "rw"), stream(3, "probe", "rw")
        optimality_probe(make_strategy(StrategySpec(RW, 2, 100.0, UNC)), n, probed)
        for _ in range(3 * n):
            scalar.uniform()
        assert probed.uniform() == scalar.uniform()


class TestDensityComparison:
    def test_unit_cost_values(self):
        rw, ra = abort_density_comparison(1.0)
        assert rw == pytest.approx(math.log(2.0) / (2.0 * math.log(2.0) - 1.0), rel=1e-9)
        assert ra == pytest.approx((math.e - 1.0) / (math.e - 2.0), rel=1e-9)
        assert rw == pytest.approx(1.794, abs=5e-4)
        assert ra == pytest.approx(2.392, abs=5e-4)

    def test_scaling_and_ordering(self):
        for B in (1.0, 7.0, 100.0, 2000.0):
            rw, ra = abort_density_comparison(B)
            assert rw < ra
            assert rw * B == pytest.approx(abort_density_comparison(1.0)[0], rel=1e-9)


@pytest.fixture(scope="class")
def report():
    return run_verification_suite()


class TestSuite:
    def test_full_suite_passes(self, report):
        assert report["passed"], report["failed"]
        assert report["n_checks"] >= 30
        assert report["n_failed"] == 0
        json.dumps(report)  # must be serializable

    def test_closed_form_costs_leave_rounding_only(self, report):
        checks = {c["name"]: c for c in report["checks"]}
        lagrange = [c for name, c in checks.items() if name.startswith("lagrange/")]
        assert len(lagrange) == 24
        assert max(max(c["max_residual"], c["point_mass_residual"]) for c in lagrange) <= 1e-13
        exact = [c for name, c in checks.items() if name.startswith("worst_case/") and "expected" in c]
        assert len(exact) == 9
        assert max(abs(c["value"] - c["expected"]) for c in exact) <= 1e-14
        moments = [name for name in checks if name.startswith("moment_vs_quadrature/")]
        assert len(moments) == 6
        assert report["n_checks"] == 150

    def test_identity_corners_match_module(self):
        # the lagrange corners used throughout must agree with closed forms
        assert lagrange_corner(RW, 2, 100.0, False) == (2.0, 0.0)
        lam1, lam2 = lagrange_corner(RW, 2, 100.0, True)
        assert lam1 == 1.0
        assert lam2 == pytest.approx(1.0 / (200.0 * (2 * math.log(2.0) - 1.0)))
        lam1, lam2 = lagrange_corner(RA, 3, 100.0, True)
        assert lam1 == 1.0
        g = 2.0 * (math.exp(0.5) - 1.0) - 1.0
        assert lam2 == pytest.approx(2.0 / (200.0 * g))
