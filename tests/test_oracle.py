import json
import math
from dataclasses import replace

import numpy as np
import pytest

from graceperiod import costmodel, oracle
from graceperiod.oracle import (
    _adversary_costs,
    _deterministic_certificate_checks,
    _identity_cases,
    _identity_checks,
    abort_density_comparison,
    lagrange_identity_check,
    optimality_probe,
    run_verification_suite,
    verify_density,
    verify_pdf,
    worst_case_ratio,
    yao_lower_bound,
)
from graceperiod.strategy import (
    ConflictMode,
    StrategySpec,
    StrategyKind,
    Variant,
    competitive_ratio,
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
# the uniform density judged at requestor wins k = 3: its ratio tends to 2 as
# y -> 0, against the optimum 1.8
UNIFORM_AT_K3 = replace(
    make_strategy(StrategySpec(RW, 2, 100.0, UNC)), spec=StrategySpec(RW, 3, 100.0, UNC)
)


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

    @staticmethod
    def wrong_form(B):
        c = B * (2.0 * math.log(2.0) - 1.0)
        return verify_density(lambda x: np.log((B + x) / np.maximum(x, 1e-12)) / c, B)

    def test_wrong_form_detected(self):
        res = self.wrong_form(10.0)
        assert not res.passed
        # the malformed form integrates to ln4/(ln4-1) on [0, B], so the
        # residual is gross, far beyond any quadrature wobble near x = 0
        assert res.normalization_error > 1.0

    @pytest.mark.parametrize("B", [1.0, 10.0, 1000.0])
    def test_wrong_form_residual_is_one_over_ln4_minus_1(self, B):
        # the integral of ln((B+x)/x) over [0, B] is 2B ln2 at every B, so
        # the form never normalizes: it misses 1 by 1/(ln4-1)
        expected = 1.0 / (2.0 * math.log(2.0) - 1.0)
        assert self.wrong_form(B).normalization_error == pytest.approx(expected, rel=1e-9)

    def test_density_on_arrays(self):
        res = verify_density(lambda x: np.full_like(x, 0.2), 5.0)
        assert res.passed and res.normalization_error < 1e-12 and res.min_density == 0.2
        # normalized, but negative below x = 0.5
        res = verify_density(lambda x: 0.2 + 0.1 * (x - 2.5), 5.0)
        assert res.normalization_error < 1e-12
        assert not res.passed and res.min_density == pytest.approx(-0.05)

    def test_atom_rejected(self):
        atom = make_strategy(StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC))
        with pytest.raises(ValueError):
            verify_pdf(atom)
        with pytest.raises(ValueError):
            oracle._verify_pdfs([make_strategy(StrategySpec(RW, 2, 100.0, UNC)), atom])

    def test_each_normalization_entry_is_its_cell_alone(self):
        # the one pass over the distinct densities gives every cell the bits
        # of its own single-strategy check, which equals verify_density's
        entries = {c["name"]: c for c in oracle._normalization_checks()}
        cells = oracle._normalization_cells()
        assert len(entries) == len(cells) == 99
        for name, spec in cells:
            strat = make_strategy(spec)
            alone = verify_pdf(strat)
            entry = entries[f"normalization/{name}"]
            assert entry["residual"] == alone.normalization_error, name
            assert entry["min_density"] == alone.min_density, name
            assert entry["passed"] is alone.passed, name
            if strat.kind is StrategyKind.CONTINUOUS_PDF:
                assert verify_density(strat.pdf, strat.support_max) == alone, name


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

    @staticmethod
    def two_call_residuals(strategy, lam1, lam2):
        """The residuals with the grid and the point 2S costed in separate calls."""
        S, k = strategy.support_max, strategy.spec.k
        ys = np.linspace(S / 1000, S, 1000)
        line = lam1 + lam2 * ys
        costs = costmodel.batch_expected_costs(strategy, ys)
        max_residual = float(np.max(np.abs(costs / ((k - 1) * ys) - line) / line))
        beyond = costmodel.batch_expected_costs(strategy, np.array([2.0 * S]))[0]
        target = lam1 + lam2 * S
        return max_residual, abs(beyond / strategy.spec.B - target) / target

    def test_one_call_equals_two_calls_bit_for_bit(self):
        cases = _identity_cases()
        assert len(cases) == 24
        for name, strat, corner in cases:
            res = lagrange_identity_check(strat, *corner)
            ref = self.two_call_residuals(strat, *corner)
            got = (res.max_residual, res.point_mass_residual)
            assert [v.hex() for v in map(float, got)] == [v.hex() for v in ref], name

    def test_one_cost_call_per_check(self, monkeypatch):
        calls = []
        real = costmodel.batch_expected_costs
        monkeypatch.setattr(
            costmodel, "batch_expected_costs", lambda s, ys: calls.append(len(ys)) or real(s, ys)
        )
        assert len(_identity_checks()) == 24
        assert calls == [1001] * 24


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

    def test_discrete_classic_argmax_is_the_first_tied_day(self):
        # every day up to B ties at the granular optimum to rounding; the
        # reported day is the first, whichever day the last bit favours
        for B in (3.0, 10.0, 100.0):
            strat = make_strategy(StrategySpec(RA, 2, B, Variant.DISCRETE_CLASSIC))
            ratio, argmax = worst_case_ratio(strat)
            ratios = costmodel.batch_ratios(strat, np.arange(1.0, B + 2.0))
            assert ratio == ratios.max() and argmax == 1.0
            assert np.all(np.abs(ratios[:-1] / ratio - 1.0) < 1e-12)

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

    def test_grid_of_strategies_respects_theory(self):
        # every strategy in the grid stays within its claimed worst-case
        # ratio; a point adversary at y has mean y, so a mean-aware density's
        # worst point sits at the support's end, where its dual objective is
        # lambda1 + lambda2 * S
        families = set()
        for k in (2, 3, 5, 10):
            for B in (10.0, 200.0, 2000.0):
                specs = [
                    StrategySpec(RW, k, B, UNC),
                    StrategySpec(RA, k, B, UNC),
                    StrategySpec(RW, k, B, Variant.DETERMINISTIC),
                ] + [
                    StrategySpec(mode, k, B, CON, mu=f * B)
                    for mode in (RW, RA)
                    for f in (0.1, 1.0, 100.0)
                ]
                for spec in specs:
                    strat = make_strategy(spec)
                    families.add(strat.family)
                    bound = competitive_ratio(spec).theoretical_ratio
                    if strat.mean_aware:
                        lam1, lam2 = lagrange_corner(spec.mode, k, B, True)
                        bound = lam1 + lam2 * strat.support_max
                    ratio, _ = worst_case_ratio(strat, n_grid=500)
                    assert ratio <= bound * (1.0 + 1e-12), (spec, ratio, bound)
        assert families == {
            "uniform", "rw_log", "rw_shifted_power", "rw_power", "ra_exp", "ra_expm1", "atom"
        }

    def test_suboptimal_strategy_exceeds_two(self):
        ratio, _ = worst_case_ratio(CLASSIC_UNDER_RW)
        assert ratio == pytest.approx(CLASSIC_UNDER_RW_RATIO, rel=0.0, abs=1e-9)

    def test_supremum_at_zero_is_exact(self):
        # the uniform density's profile falls from its limit 2 as y -> 0+
        assert worst_case_ratio(UNIFORM_AT_K3) == (2.0, 0.0)


class TestYaoCertificate:
    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 100, 10**4, 10**5, 10**7])
    def test_bound_is_the_theoretical_ratio(self, mode, k):
        # the uniform density at RW k = 2, rw_power above, ra_exp in every case
        spec = StrategySpec(mode, k, 100.0, UNC)
        expected = competitive_ratio(spec).theoretical_ratio
        assert abs(yao_lower_bound(mode, k) - expected) <= 1e-12 * expected

    def test_bound_closed_forms(self):
        assert yao_lower_bound(RW, 2) == pytest.approx(2.0, rel=1e-15)
        assert yao_lower_bound(RW, 3) == pytest.approx(1.8, rel=1e-15)
        assert yao_lower_bound(RA, 2) == pytest.approx(math.e / (math.e - 1.0), rel=1e-15)
        # as the chain grows, RW tends to e/(e-1) and RA to k - 1/2
        assert yao_lower_bound(RW, 10**7) == pytest.approx(math.e / (math.e - 1.0), rel=1e-6)
        assert yao_lower_bound(RA, 10**7) == pytest.approx(10**7 - 0.5, rel=1e-12)
        with pytest.raises(ValueError):
            yao_lower_bound(RW, 1)

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 10**3, 10**4, 10**5, 10**7])
    @pytest.mark.parametrize("B", [1.0, 100.0, 1e6])
    def test_every_unconstrained_spec_is_certified(self, mode, k, B):
        spec = StrategySpec(mode, k, B, UNC)
        res = optimality_probe(make_strategy(spec))
        assert res.passed
        assert abs(res.worst_case - res.bound) <= 1e-12 * res.bound
        assert res.flatness <= 1e-9
        assert abs(res.adversary_ratio - res.bound) <= 1e-9 * res.bound
        ratio = competitive_ratio(spec).theoretical_ratio
        assert abs(ratio - yao_lower_bound(mode, k)) <= 1e-12 * ratio

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 10, 10**4])
    def test_adversary_cost_is_flat(self, mode, k):
        # every grace period on [0, S] costs Yao's adversary abort(0): B under
        # requestor wins, (k-1)B under requestor aborts
        B = 100.0
        xs = np.linspace(0.0, B / (k - 1), 65)
        costs, opt = _adversary_costs(mode, k, B, xs)
        flat = B if mode is RW else (k - 1) * B
        np.testing.assert_allclose(costs, flat, rtol=1e-12, atol=0.0)
        assert flat / opt == pytest.approx(yao_lower_bound(mode, k), rel=1e-12)

    def test_uniform_at_k3_is_detected(self):
        res = optimality_probe(UNIFORM_AT_K3)
        assert not res.passed
        assert res.worst_case == 2.0
        assert res.bound == pytest.approx(1.8, rel=1e-15)
        # the adversary itself is sound: the density is what fails
        assert res.flatness <= 1e-9

    def test_classic_under_rw_is_detected(self):
        res = optimality_probe(CLASSIC_UNDER_RW)
        assert not res.passed
        assert res.worst_case == pytest.approx(CLASSIC_UNDER_RW_RATIO, rel=0.0, abs=1e-9)
        assert res.bound == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC),
        StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC),
        StrategySpec(RW, 2, 100.0, CON, mu=10.0),
        StrategySpec(RA, 3, 100.0, CON, mu=1.0),
    ], ids=["atom", "day_pmf", "rw_log", "ra_expm1"])
    def test_refuses_what_it_cannot_certify(self, spec):
        with pytest.raises(ValueError, match="unconstrained densities"):
            optimality_probe(make_strategy(spec))

    def test_deterministic_threshold_is_the_grid_minimum(self):
        checks = _deterministic_certificate_checks()
        assert [c["name"] for c in checks] == [f"certificate/det_k{k}" for k in (2, 3, 5, 10)]
        for k, c in zip((2, 3, 5, 10), checks):
            assert c["passed"], c
            assert c["argmin"] == pytest.approx(100.0 / (k - 1), rel=1e-12)
            assert c["value"] == pytest.approx(2.0 + 1.0 / (k - 1), rel=1e-12)

    def test_deterministic_certificate_detects_a_shifted_threshold(self, monkeypatch):
        # with the threshold moved off B/(k-1), the grid minimum no longer
        # sits at it
        monkeypatch.setattr(oracle, "det_threshold", lambda k, B: 1.01 * B / (k - 1))
        assert not any(c["passed"] for c in _deterministic_certificate_checks())


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

    def test_reversed_order_is_reported_not_raised(self, monkeypatch):
        # swap the modes of the two mu = 0 specs, which only this comparison
        # builds: the pair comes back reversed, and verify reports the failed
        # check instead of stopping without a report
        real = oracle.make_strategy
        other = {RW: RA, RA: RW}
        monkeypatch.setattr(oracle, "make_strategy", lambda spec: real(
            replace(spec, mode=other[spec.mode]) if spec.mu == 0.0 else spec
        ))
        rw, ra = abort_density_comparison(1.0)
        assert rw > ra
        report = run_verification_suite()
        assert report["failed"] == ["discussion/endpoint_density_ordering"]
        assert not report["passed"]


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
        assert len(exact) == 7
        assert max(abs(c["value"] - c["expected"]) for c in exact) <= 1e-14
        moments = [name for name in checks if name.startswith("moment_vs_quadrature/")]
        assert len(moments) == 6
        assert report["n_checks"] == 159

    def test_certificates_hold_and_controls_are_detected(self, report):
        checks = {c["name"]: c for c in report["checks"]}
        certified = [
            f"certificate/{tag}_k{k}" for tag in ("rw", "ra", "det") for k in (2, 3, 5, 10)
        ]
        for name in certified:
            assert checks[name]["passed"] and checks[name]["residual"] <= 1e-12, checks[name]
        controls = [name for name in checks if name.startswith("certificate/control_")]
        assert controls == [
            "certificate/control_rw_uniform_k3_detected",
            "certificate/control_classic_under_rw_detected",
        ]
        for name in controls:
            assert checks[name]["passed"] and checks[name]["residual"] > 0.05, checks[name]
        # the certificates absorbed the requestor-aborts worst-case scans
        assert not any(name.startswith("worst_case/ra_general") for name in checks)

    def test_report_does_not_depend_on_seed(self, report):
        other = run_verification_suite(seed=7)
        assert other["seed"] == 7
        assert {**other, "seed": None} == {**report, "seed": None}

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
