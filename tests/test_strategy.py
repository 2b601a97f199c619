import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graceperiod.rng import stream
from graceperiod.strategy import (
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    competitive_ratio,
    custom_continuous,
    det_competitive_ratio,
    det_threshold,
    lagrange_corner,
    make_strategy,
    threshold_condition,
)

RW = ConflictMode.REQUESTOR_WINS
RA = ConflictMode.REQUESTOR_ABORTS
UNC = Variant.RANDOMIZED_UNCONSTRAINED
CON = Variant.RANDOMIZED_CONSTRAINED
LN4M1 = 2.0 * math.log(2.0) - 1.0


def ks_statistic(samples, cdf):
    xs = np.sort(samples)
    n = len(xs)
    f = cdf(xs)
    grid = np.arange(1, n + 1) / n
    return max(np.max(np.abs(grid - f)), np.max(np.abs(f - (grid - 1 / n))))


class TestDeterministic:
    def test_threshold_values(self):
        assert det_threshold(2, 100.0) == 100.0
        assert det_threshold(5, 100.0) == 25.0

    def test_threshold_domain_errors(self):
        with pytest.raises(ValueError):
            det_threshold(1, 100.0)
        with pytest.raises(ValueError):
            det_threshold(2, 0.0)
        with pytest.raises(ValueError):
            det_threshold(2, -5.0)

    def test_ratio_values(self):
        assert det_competitive_ratio(2) == 3.0
        assert det_competitive_ratio(3) == 2.5
        with pytest.raises(ValueError):
            det_competitive_ratio(1)

    def test_ratio_decreases_toward_two(self):
        ratios = [det_competitive_ratio(k) for k in range(2, 60)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 2.0
        assert det_competitive_ratio(10_000) == pytest.approx(2.0, abs=1e-3)

    def test_atom_strategy(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC))
        assert strat.kind is StrategyKind.ATOM
        s = stream(1)
        assert strat.sample(s) == 100.0
        assert strat.sample(s) == 100.0
        with pytest.raises(ValueError):
            strat.pdf(10.0)
        with pytest.raises(ValueError):
            strat.cdf(10.0)


class TestThresholdCondition:
    def test_requestor_wins_k2(self):
        # high fixed cost: mean constraint pays off
        spec = StrategySpec(RW, 2, 2000.0, CON, mu=500.0)
        assert threshold_condition(spec) is True
        # low fixed cost: it does not
        spec = StrategySpec(RW, 2, 200.0, CON, mu=500.0)
        assert threshold_condition(spec) is False

    def test_requestor_wins_k3(self):
        # (q-2)/((k-2)(q-1)) = 0.2 at k = 3
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=10.0)) is True
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=20.0)) is True
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=20.001)) is False

    def test_requestor_aborts_k2(self):
        lim = 2.0 * (math.e - 2.0) / (math.e - 1.0)
        assert threshold_condition(StrategySpec(RA, 2, 100.0, CON, mu=100.0 * lim * 0.999))
        assert not threshold_condition(StrategySpec(RA, 2, 100.0, CON, mu=100.0 * lim * 1.001))

    def test_requestor_aborts_general_simplified_vs_raw(self):
        g = 2 * (math.exp(0.5) - 1.0) - 1.0
        spec = StrategySpec(RA, 3, 10.0, CON, mu=1.0)
        assert threshold_condition(spec) is (1.0 / 9.0 < 2.0 * g)
        # raw inequality: (mu + 2g)/B < 2g
        assert threshold_condition(spec, raw_ra_inequality=True) is (
            (1.0 + 2.0 * g) / 10.0 < 2.0 * g
        )

    def test_missing_mu_rejected(self):
        with pytest.raises(ValueError):
            threshold_condition(StrategySpec(RW, 2, 100.0, UNC))


class TestMakeStrategy:
    def test_rw_uniform_density(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        assert strat.family == "uniform"
        assert strat.pdf(50.0) == pytest.approx(0.01, abs=1e-15)
        assert strat.pdf(-1.0) == 0.0
        assert strat.pdf(101.0) == 0.0
        assert strat.cdf(100.0) == pytest.approx(1.0, abs=1e-12)

    def test_rw_uniform_general_k_support(self):
        strat = make_strategy(StrategySpec(RW, 5, 100.0, UNC))
        assert strat.support_max == 25.0
        assert strat.pdf(10.0) == pytest.approx(4.0 / 100.0)

    def test_rw_constrained_k2_closed_form(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, CON, mu=10.0))
        assert strat.family == "rw_log"
        assert strat.pdf(0.0) == 0.0
        assert strat.pdf(100.0) == pytest.approx(math.log(2.0) / (100.0 * LN4M1), rel=1e-12)
        # analytic CDF: ((B+x)ln((B+x)/B) - x) / (B(ln4-1))
        for x in (13.0, 50.0, 99.0):
            expected = ((100.0 + x) * math.log((100.0 + x) / 100.0) - x) / (100.0 * LN4M1)
            assert strat.cdf(x) == pytest.approx(expected, rel=1e-12)

    def test_rw_constrained_falls_back_when_threshold_fails(self):
        strat = make_strategy(StrategySpec(RW, 2, 200.0, CON, mu=500.0))
        assert strat.family == "uniform"
        strat = make_strategy(StrategySpec(RW, 4, 200.0, CON, mu=500.0))
        assert strat.family == "rw_power"

    def test_rw_constrained_k3_vanishes_at_zero_and_rises(self):
        strat = make_strategy(StrategySpec(RW, 3, 100.0, CON, mu=5.0))
        assert strat.family == "rw_shifted_power"
        assert strat.pdf(0.0) == 0.0
        grid = np.linspace(0.0, strat.support_max, 200)
        vals = strat.pdf(grid)
        assert np.all(np.diff(vals) > 0.0)

    def test_ra_unconstrained_exponential(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, UNC))
        assert strat.family == "ra_exp"
        for x in (0.0, 40.0, 100.0):
            assert strat.pdf(x) == pytest.approx(
                math.exp(x / 100.0) / (100.0 * (math.e - 1.0)), rel=1e-12
            )

    def test_ra_constrained_k2_cdf(self):
        B = 100.0
        strat = make_strategy(StrategySpec(RA, 2, B, CON, mu=10.0))
        assert strat.family == "ra_expm1"
        assert strat.pdf(0.0) == 0.0
        for x in (25.0, 60.0, 100.0):
            expected = (B * math.exp(x / B) - B - x) / (B * (math.e - 2.0))
            assert strat.cdf(x) == pytest.approx(expected, rel=1e-12)
        assert strat.cdf(B) == pytest.approx(1.0, abs=1e-9)

    def test_discrete_classic_exact_pmf(self):
        strat = make_strategy(StrategySpec(RA, 2, 3.0, Variant.DISCRETE_CLASSIC))
        assert strat.exact_pmf(1) == Fraction(4, 19)
        assert strat.exact_pmf(2) == Fraction(6, 19)
        assert strat.exact_pmf(3) == Fraction(9, 19)

    @pytest.mark.parametrize("B", range(1, 13))
    def test_discrete_classic_rational_normalization(self, B):
        strat = make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        assert sum(strat.exact_pmf(i) for i in range(1, B + 1)) == Fraction(1)

    def test_discrete_classic_cdf_steps(self):
        strat = make_strategy(StrategySpec(RA, 2, 3.0, Variant.DISCRETE_CLASSIC))
        assert strat.cdf(0.5) == 0.0
        assert strat.cdf(1.0) == pytest.approx(4.0 / 19.0, rel=1e-12)
        assert strat.cdf(1.7) == pytest.approx(4.0 / 19.0, rel=1e-12)
        assert strat.cdf(2.0) == pytest.approx(10.0 / 19.0, rel=1e-12)
        assert strat.cdf(3.0) == 1.0
        assert strat.cdf(99.0) == 1.0

    def test_invalid_spec_combinations(self):
        with pytest.raises(ValueError):
            StrategySpec(RA, 2, 100.0, Variant.DETERMINISTIC)
        with pytest.raises(ValueError):
            StrategySpec(RW, 2, 100.0, Variant.DISCRETE_CLASSIC)
        with pytest.raises(ValueError):
            StrategySpec(RA, 3, 100.0, Variant.DISCRETE_CLASSIC)
        with pytest.raises(ValueError):
            StrategySpec(RA, 2, 100.5, Variant.DISCRETE_CLASSIC)
        with pytest.raises(ValueError):
            StrategySpec(RW, 2, 100.0, CON)  # constrained without mu
        with pytest.raises(ValueError):
            StrategySpec(RW, 1, 100.0, UNC)
        with pytest.raises(ValueError):
            StrategySpec(RW, 2, 0.0, UNC)
        with pytest.raises(ValueError):
            StrategySpec(RW, 2, 100.0, UNC, mu=-1.0)


class TestReductionConsistency:
    def test_ra_general_at_k2_matches_k2_closed_forms(self):
        B = 137.0
        xs = np.linspace(0.0, B, 500)
        unc = make_strategy(StrategySpec(RA, 2, B, UNC))
        expected = np.exp(xs / B) / (B * (math.e - 1.0))
        assert np.max(np.abs(unc.pdf(xs) - expected)) < 1e-12
        con = make_strategy(StrategySpec(RA, 2, B, CON, mu=1.0))
        expected = np.expm1(xs / B) / (B * (math.e - 2.0))
        assert np.max(np.abs(con.pdf(xs) - expected)) < 1e-12

    def test_rw_power_kernel_at_k2_is_uniform(self):
        # the (1+x/B)^(k-2) family degenerates to the flat density at k = 2
        spec = StrategySpec(RW, 2, 50.0, UNC)
        power = GracePeriodStrategy(
            spec, StrategyKind.CONTINUOUS_PDF, "rw_power", 50.0, {"q": 2.0}
        )
        xs = np.linspace(0.0, 50.0, 100)
        assert np.max(np.abs(power.pdf(xs) - 1.0 / 50.0)) < 1e-15


class TestSampling:
    def test_uniform_sample_mean(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        xs = strat.sample_batch(stream(42, "mean"), 1_000_000)
        assert abs(float(xs.mean()) - 50.0) < 0.2

    def test_samples_respect_support(self):
        for spec in (
            StrategySpec(RW, 3, 90.0, CON, mu=2.0),
            StrategySpec(RA, 4, 90.0, CON, mu=1.0),
            StrategySpec(RA, 2, 90.0, UNC),
        ):
            strat = make_strategy(spec)
            xs = strat.sample_batch(stream(5, spec.mode.value, spec.k), 20_000)
            assert np.all(xs >= 0.0) and np.all(xs <= strat.support_max + 1e-9)

    def test_ks_constrained_rw_against_analytic_cdf(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, CON, mu=10.0))
        xs = strat.sample_batch(stream(2024, "ks"), 1_000_000)
        assert ks_statistic(xs, strat.cdf) < 0.002

    def test_ks_ra_exponential(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, UNC))
        xs = strat.sample_batch(stream(77, "ks"), 200_000)
        assert ks_statistic(xs, strat.cdf) < 0.004

    def test_scalar_and_batch_draws_agree(self):
        for spec, family in (
            (StrategySpec(RW, 2, 100.0, UNC), "uniform"),
            (StrategySpec(RA, 3, 100.0, UNC), "ra_exp"),
            (StrategySpec(RW, 2, 100.0, CON, mu=10.0), "rw_log"),
            (StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC), "discrete_classic"),
            (StrategySpec(RW, 3, 100.0, CON, mu=90.0), "rw_power"),
            (StrategySpec(RW, 3, 100.0, CON, mu=10.0), "rw_shifted_power"),
            (StrategySpec(RA, 2, 100.0, CON, mu=10.0), "ra_expm1"),
            (StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC), "atom"),
        ):
            strat = make_strategy(spec)
            assert strat.family == family
            a, b = stream(9, "x"), stream(9, "x")
            batch = strat.sample_batch(a, 50)
            scalars = np.array([strat.sample(b) for _ in range(50)])
            assert np.array_equal(batch, scalars), family
            assert a.u64() == b.u64()  # both consumed the same number of draws

    def test_discrete_sampling_matches_pmf(self):
        strat = make_strategy(StrategySpec(RA, 2, 10.0, Variant.DISCRETE_CLASSIC))
        xs = strat.sample_batch(stream(31, "pmf"), 200_000)
        counts = np.bincount(xs.astype(int), minlength=11)[1:]
        freq = counts / len(xs)
        pmf = np.array([strat.pdf(i) for i in range(1, 11)])
        assert np.max(np.abs(freq - pmf)) < 0.004


def reference_bisection_quantile(strat, u):
    """The 48-step bisection ``quantile`` used before its Newton inverse,
    kept here only as a reference."""
    lo = np.zeros_like(u)
    hi = np.full_like(u, strat.support_max)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = strat.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def mean_aware(mode, k, B):
    """The constrained density of ``(mode, k)`` at abort cost ``B``.

    ``make_strategy`` falls back to the unconstrained form where the mean
    threshold fails (always for requestor-aborts chains of three or more at
    ``B <= 1``), so build it at ``B = 100`` and rescale: its parameters
    depend on ``k`` only.
    """
    strat = make_strategy(StrategySpec(mode, k, 100.0, CON, mu=5.0))
    spec = StrategySpec(mode, k, B, CON, mu=0.05 * B)
    return dataclasses.replace(strat, spec=spec, support_max=spec.support_max)


# dense grid plus log-spaced tails toward 0 and 1
U_GRID = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 20001)[:-1],
    np.logspace(-12.0, -1.0, 221),
    1.0 - np.logspace(-15.0, -1.0, 281),
]))
SMALLEST_UNIFORMS = 2.0 ** -53 * np.arange(1, 65)  # the stream's first steps above 0

MEAN_AWARE = [
    (RW, 2, "rw_log"),
    (RW, 3, "rw_shifted_power"),
    (RW, 4, "rw_shifted_power"),
    (RW, 5, "rw_shifted_power"),
    (RA, 2, "ra_expm1"),
    (RA, 3, "ra_expm1"),
    (RA, 7, "ra_expm1"),
]


# the rows with a closed-form inverse; mu = 10 B fails every threshold, so a
# constrained requestor-wins spec of k >= 3 falls back to rw_power
EXACT_INVERSE = [
    (RW, 2, UNC, "uniform"),
    (RW, 5, UNC, "uniform"),
    (RA, 2, UNC, "ra_exp"),
    (RA, 3, UNC, "ra_exp"),
    (RA, 7, UNC, "ra_exp"),
    (RW, 3, CON, "rw_power"),
    (RW, 4, CON, "rw_power"),
    (RW, 5, CON, "rw_power"),
]


def assert_quantile_inverts_cdf(strat):
    S = strat.support_max
    x = strat.quantile(U_GRID)
    assert np.max(np.abs(strat.cdf(x) - U_GRID)) < 1e-12
    tiny = strat.quantile(SMALLEST_UNIFORMS)
    assert np.max(np.abs(strat.cdf(tiny) - SMALLEST_UNIFORMS)) < 1e-12
    assert strat.quantile(np.zeros(1))[0] == 0.0
    tail = U_GRID >= 1e-9
    ref = reference_bisection_quantile(strat, U_GRID[tail])
    assert np.max(np.abs(x[tail] - ref)) < 1e-9 * S
    assert np.all(np.diff(x) >= -1e-14 * S)
    assert np.all((x >= 0.0) & (x <= S))


class TestQuantile:
    @pytest.mark.parametrize("B", [1e-3, 1.0, 2000.0, 1e6])
    @pytest.mark.parametrize("mode,k,family", MEAN_AWARE)
    def test_mean_aware_inverse(self, mode, k, family, B):
        strat = mean_aware(mode, k, B)
        assert strat.family == family
        assert_quantile_inverts_cdf(strat)

    @pytest.mark.parametrize("B", [1e-3, 1.0, 2000.0, 1e6])
    @pytest.mark.parametrize("mode,k,variant,family", EXACT_INVERSE)
    def test_exact_inverse(self, mode, k, variant, family, B):
        strat = make_strategy(StrategySpec(mode, k, B, variant, mu=10.0 * B))
        assert strat.family == family
        assert_quantile_inverts_cdf(strat)

    @pytest.mark.parametrize("B", [1e-3, 1e6])
    def test_custom_table_inverse(self, B):
        spec = StrategySpec(RW, 2, B, UNC)
        # linear density that does not vanish at 0: (1 + x/B) / (1.5 B)
        strat = custom_continuous(spec, lambda x: (1.0 + x / B) / (1.5 * B), mesh_points=2049)
        assert strat.family == "custom"
        assert_quantile_inverts_cdf(strat)

    def test_make_strategy_builds_each_family_at_moderate_B(self):
        # the rescaled strategies above are what make_strategy itself returns
        for mode, k, family in MEAN_AWARE:
            spec = StrategySpec(mode, k, 2000.0, CON, mu=100.0)
            assert make_strategy(spec) == mean_aware(mode, k, 2000.0)


class TestRegimesAndRatios:
    def test_unconstrained_ratio_values(self):
        assert competitive_ratio(StrategySpec(RW, 2, 100.0, UNC)).theoretical_ratio == 2.0
        assert competitive_ratio(StrategySpec(RW, 7, 100.0, UNC)).theoretical_ratio == 2.0
        got = competitive_ratio(StrategySpec(RA, 2, 100.0, UNC)).theoretical_ratio
        assert got == pytest.approx(1.581977, abs=1e-6)
        got = competitive_ratio(StrategySpec(RA, 3, 100.0, UNC)).theoretical_ratio
        assert got == pytest.approx(2.541494, abs=1e-5)

    def test_ra_general_formula_reduces_to_classic_at_k2(self):
        e1 = math.exp(1.0 / (2 - 1))
        assert e1 / (e1 - 1.0) == pytest.approx(math.e / (math.e - 1.0), rel=1e-15)

    def test_rw_power_corner_value(self):
        report = competitive_ratio(StrategySpec(RW, 3, 100.0, CON, mu=1000.0))
        assert report.regime == "unconstrained"
        assert report.theoretical_ratio == pytest.approx(9.0 / 5.0, rel=1e-12)

    def test_constrained_ratio_is_corner_objective(self):
        for mode, k, B, mu in ((RW, 2, 100.0, 10.0), (RA, 2, 50.0, 5.0),
                               (RW, 4, 80.0, 1.0), (RA, 5, 80.0, 1.0)):
            report = competitive_ratio(StrategySpec(mode, k, B, CON, mu=mu))
            lam1, lam2 = lagrange_corner(mode, k, B, constrained=True)
            assert report.regime == "constrained"
            assert report.theoretical_ratio == lam1 + lam2 * mu

    def test_rw_k2_constrained_ratio_formula(self):
        report = competitive_ratio(StrategySpec(RW, 2, 2000.0, CON, mu=500.0))
        assert report.threshold_holds
        assert report.theoretical_ratio == pytest.approx(
            1.0 + 500.0 / (2.0 * 2000.0 * LN4M1), rel=1e-15
        )

    def test_ra_k2_constrained_ratio_formula(self):
        report = competitive_ratio(StrategySpec(RA, 2, 2000.0, CON, mu=500.0))
        assert report.theoretical_ratio == pytest.approx(
            1.0 + 500.0 / (2.0 * 2000.0 * (math.e - 2.0)), rel=1e-15
        )

    def test_mean_aware_exactly_when_regime_constrained(self):
        seen = set()
        for mode, variant, k, B, mu in itertools.product(
            (RW, RA), Variant, (2, 3, 5), (0.5, 3.0, 100.0), (None, 0.0, 1.0, 20.0, 500.0)
        ):
            try:
                spec = StrategySpec(mode, k, B, variant, mu=mu)
            except ValueError:
                continue  # no such strategy
            mean_aware = make_strategy(spec).mean_aware
            assert mean_aware is (competitive_ratio(spec).regime == "constrained"), spec
            seen.add(mean_aware)
        assert seen == {True, False}

    def test_discrete_classic_reports_continuous_limit(self):
        report = competitive_ratio(StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC))
        assert report.theoretical_ratio == pytest.approx(math.e / (math.e - 1.0))

    def test_regime_ordering_below_threshold(self):
        for mode in (RW, RA):
            for k in (2, 3, 5):
                for B in (10.0, 100.0):
                    mu = 0.5 * _mu_threshold(mode, k, B)
                    con = competitive_ratio(StrategySpec(mode, k, B, CON, mu=mu))
                    unc = competitive_ratio(StrategySpec(mode, k, B, UNC))
                    if mode is RW and k >= 3:
                        unc_val = competitive_ratio(
                            StrategySpec(mode, k, B, CON, mu=1e12)
                        ).theoretical_ratio
                    else:
                        unc_val = unc.theoretical_ratio
                    assert con.regime == "constrained"
                    assert con.theoretical_ratio < unc_val

    def test_ratios_coincide_at_the_crossing_mean(self):
        # mu* where the constrained corner objective meets the unconstrained corner
        for mode, k, B in ((RW, 2, 10.0), (RW, 2, 2000.0), (RA, 2, 100.0),
                           (RW, 3, 100.0), (RW, 5, 10.0), (RA, 3, 100.0), (RA, 5, 10.0)):
            lam1c, lam2c = lagrange_corner(mode, k, B, constrained=True)
            unc_corner = lagrange_corner(mode, k, B, constrained=False)[0]
            mu_star = (unc_corner - lam1c) / lam2c
            assert lam1c + lam2c * mu_star == pytest.approx(unc_corner, rel=1e-12)

    def test_large_k_threshold_approaches_asymptotic_form(self):
        # (q-2)/((k-2)(q-1)) with q -> e gives (e-2)/((k-2)(e-1)) for large k
        def exact(k):
            q = (k / (k - 1.0)) ** (k - 1)
            return (q - 2.0) / ((k - 2) * (q - 1.0))

        def asymptotic(k):
            return (math.e - 2.0) / ((k - 2) * (math.e - 1.0))

        rel_errors = [abs(exact(k) - asymptotic(k)) / asymptotic(k) for k in (10, 40, 160)]
        assert all(a > b for a, b in zip(rel_errors, rel_errors[1:]))
        assert rel_errors[-1] < 0.01

    def test_mode_crossover(self):
        # pairwise chains favor requestor aborts; longer chains favor requestor wins
        ra2 = competitive_ratio(StrategySpec(RA, 2, 100.0, UNC)).theoretical_ratio
        assert ra2 < 2.0
        for k in (3, 5, 10):
            rw = competitive_ratio(StrategySpec(RW, k, 100.0, CON, mu=1e12)).theoretical_ratio
            ra = competitive_ratio(StrategySpec(RA, k, 100.0, UNC)).theoretical_ratio
            assert rw < ra

    def test_zero_mean_degenerates_to_ratio_one(self):
        report = competitive_ratio(StrategySpec(RW, 2, 100.0, CON, mu=0.0))
        assert report.theoretical_ratio == 1.0
        strat = make_strategy(StrategySpec(RW, 2, 100.0, CON, mu=0.0))
        assert strat.cdf(100.0) == pytest.approx(1.0, abs=1e-12)


def _mu_threshold(mode, k, B):
    lo, hi = 0.0, 10.0 * B * k
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if threshold_condition(StrategySpec(mode, k, B, CON, mu=mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def strategy_specs(draw):
    mode = draw(st.sampled_from([RW, RA]))
    k = draw(st.integers(min_value=2, max_value=8))
    B = draw(st.floats(min_value=1.0, max_value=3000.0, allow_nan=False))
    variant = draw(st.sampled_from([UNC, CON]))
    mu = None
    if variant is CON:
        mu = B * draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    return StrategySpec(mode, k, B, variant, mu=mu)


@settings(max_examples=40, deadline=None)
@given(strategy_specs())
def test_property_density_is_normalized_and_nonnegative(spec):
    strat = make_strategy(spec)
    grid = np.linspace(0.0, strat.support_max, 2001)
    vals = strat.pdf(grid)
    assert np.all(vals >= -1e-12)
    assert strat.cdf(0.0) >= 0.0
    assert strat.cdf(strat.support_max) == pytest.approx(1.0, abs=1e-9)
    cdf_vals = strat.cdf(grid)
    assert np.all(np.diff(cdf_vals) >= -1e-12)


@settings(max_examples=20, deadline=None)
@given(strategy_specs(), st.integers(min_value=0, max_value=2 ** 32))
def test_property_samples_live_on_support(spec, seed):
    strat = make_strategy(spec)
    xs = strat.sample_batch(stream(seed, "prop"), 256)
    assert np.all(xs >= 0.0)
    assert np.all(xs <= strat.support_max * (1.0 + 1e-12))
