import dataclasses
import decimal
import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graceperiod.adversary import worst_case_for_det
from graceperiod.oracle import lagrange_identity_check
from graceperiod.quadrature import adaptive_simpson
from graceperiod.costmodel import conflict_cost
from graceperiod.rng import stream, streams
from graceperiod.simulator import PolicyConfig
from graceperiod.strategy import (
    _FAMILIES,
    DISCRETE_CLASSIC_MAX_B,
    MAX_ABORT_COST,
    MIN_ABORT_COST,
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    competitive_ratio,
    det_competitive_ratio,
    det_threshold,
    lagrange_corner,
    make_strategy,
    mean_threshold,
    stacked_pdf,
    threshold_condition,
)
from graceperiod.strategy import (
    _EXP_MOMENT,
    _EXPM1_RATIO,
    _LOG_MOMENT,
    _g,
    _inverse_table,
    _params,
    _power_params,
    _q,
    _series,
)

RW = ConflictMode.REQUESTOR_WINS
RA = ConflictMode.REQUESTOR_ABORTS
UNC = Variant.RANDOMIZED_UNCONSTRAINED
CON = Variant.RANDOMIZED_CONSTRAINED

# a spec of every sampling family, with the family it resolves to
EVERY_FAMILY = [
    (StrategySpec(RW, 2, 100.0, UNC), "uniform"),
    (StrategySpec(RA, 3, 100.0, UNC), "ra_exp"),
    (StrategySpec(RW, 2, 100.0, CON, mu=10.0), "rw_log"),
    (StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC), "discrete_classic"),
    (StrategySpec(RW, 3, 100.0, CON, mu=90.0), "rw_power"),
    (StrategySpec(RW, 3, 100.0, CON, mu=10.0), "rw_shifted_power"),
    (StrategySpec(RA, 2, 100.0, CON, mu=10.0), "ra_expm1"),
    (StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC), "atom"),
]

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
        assert (strat.cdf(10.0), strat.moment(10.0)) == (0.0, 0.0)
        assert (strat.cdf(100.0), strat.moment(100.0)) == (1.0, 100.0)
        with pytest.raises(ValueError, match="takes no draws"):
            strat.quantile(np.array([0.5]))

    def test_atom_point_is_support_max(self):
        # the atom carries no params: its point is det_threshold = B/(k-1)
        for k in (2, 3, 7, 100, 10_000):
            for B in (0.1, 1.0, 3.7, 100.0, 1e6):
                strat = make_strategy(StrategySpec(RW, k, B, Variant.DETERMINISTIC))
                assert strat.params == {}
                assert strat.support_max == det_threshold(k, B)
                assert np.array_equal(strat.sample_batch(stream(1), 3), np.full(3, det_threshold(k, B)))


class TestThresholdCondition:
    def test_requestor_wins_k2(self):
        # high fixed cost: mean constraint pays off
        spec = StrategySpec(RW, 2, 2000.0, CON, mu=500.0)
        assert threshold_condition(spec) is True
        # low fixed cost: it does not
        spec = StrategySpec(RW, 2, 200.0, CON, mu=500.0)
        assert threshold_condition(spec) is False

    def test_requestor_wins_k3(self):
        # 2(q-2)/((k-2)(q-1)) = 0.4 at k = 3; mu = 30 is mean-aware (ratio 1.6)
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=10.0)) is True
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=30.0)) is True
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=39.999)) is True
        assert threshold_condition(StrategySpec(RW, 3, 100.0, CON, mu=40.0)) is False
        ratio = competitive_ratio(StrategySpec(RW, 3, 100.0, CON, mu=30.0)).theoretical_ratio
        assert ratio == pytest.approx(1.6, rel=1e-15)

    def test_requestor_aborts_k2(self):
        lim = 2.0 * (math.e - 2.0) / (math.e - 1.0)
        assert threshold_condition(StrategySpec(RA, 2, 100.0, CON, mu=100.0 * lim * 0.999))
        assert not threshold_condition(StrategySpec(RA, 2, 100.0, CON, mu=100.0 * lim * 1.001))

    def test_requestor_aborts_general_simplified_vs_raw(self):
        # raw: the mean-aware objective 1 + mu(k-1)/(2Bg) below the
        # unconstrained (1+eps)/eps; simplified: mu below 2Bg/((k-1)eps)
        eps = math.exp(0.5) - 1.0
        g = 2.0 * eps - 1.0
        bound = 10.0 * g / eps
        for mu in (1.0, 0.99 * bound, 1.01 * bound, 50.0):
            spec = StrategySpec(RA, 3, 10.0, CON, mu=mu)
            simplified = mu < bound
            raw = 1.0 + mu * 2.0 / (20.0 * g) < (1.0 + eps) / eps
            assert simplified is raw
            assert threshold_condition(spec) is raw

    def test_requestor_aborts_general_mean_aware_at_small_B(self):
        # the threshold is proportional to B, so a small enough mean qualifies
        # at every B
        for k in (3, 4, 10, 1000):
            for B in (1e-3, 0.5, 1.0):
                bound = mean_threshold(RA, k, B)
                assert bound > 0.0
                for mu, family in ((0.5 * bound, "ra_expm1"), (2.0 * bound, "ra_exp")):
                    assert make_strategy(StrategySpec(RA, k, B, CON, mu=mu)).family == family
        # the fine-grid LP's value at requestor aborts, k = 3, B = 1, mu = 0.3
        ratio = competitive_ratio(StrategySpec(RA, 3, 1.0, CON, mu=0.3)).theoretical_ratio
        assert ratio == pytest.approx(2.008598, abs=1e-6)

    def test_missing_mu_rejected(self):
        with pytest.raises(ValueError):
            threshold_condition(StrategySpec(RW, 2, 100.0, UNC))


def reference_mean_threshold(mode, k, B):
    """The crossing of the mean-aware objective with the unconstrained ratio,
    in 50-digit decimal arithmetic, from its defining constants."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        k, B = D(k), D(B)
        if mode is RW:
            if k == 2:
                return 2 * B * (D(4).ln() - 1)
            q = (k / (k - 1)) ** (k - 1)
            return 2 * B * (q - 2) / ((k - 2) * (q - 1))
        eps = (1 / (k - 1)).exp() - 1
        g = (k - 1) * eps - 1
        return 2 * B * g / ((k - 1) * eps)


class TestMeanThreshold:
    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 4, 10, 100, 10**4, 10**6, 10**7])
    @pytest.mark.parametrize("B", [0.5, 1.0, 1.5, 10.0, 2000.0])
    def test_matches_50_digit_arithmetic(self, mode, k, B):
        got = mean_threshold(mode, k, B)
        ref = reference_mean_threshold(mode, k, B)
        assert abs((decimal.Decimal(got) - ref) / ref) <= decimal.Decimal("1e-15")

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 10**4, 10**7])
    def test_proportional_to_B(self, mode, k):
        # the model has no unit of scale: scaling B scales the threshold
        for B in (0.5, 1.0, 100.0):
            for c in (1e-3, 0.5, 7.0, 1e4):
                assert mean_threshold(mode, k, c * B) == pytest.approx(
                    c * mean_threshold(mode, k, B), rel=1e-15, abs=0.0
                )

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 10, 100, 10**4])
    @pytest.mark.parametrize("B", [0.5, 1.0, 100.0, 2000.0])
    def test_ratio_is_the_smaller_objective(self, mode, k, B):
        # a constrained spec resolves to whichever of the mean-aware objective
        # and the unconstrained ratio is smaller, so it never does worse
        lam1, _ = lagrange_corner(mode, k, B, constrained=False)
        one, lam2 = lagrange_corner(mode, k, B, constrained=True)
        unconstrained = competitive_ratio(StrategySpec(mode, k, B, UNC)).theoretical_ratio
        assert unconstrained == lam1
        bound = mean_threshold(mode, k, B)
        for mu in (0.1 * bound, 0.5 * bound, 0.9 * bound, 1.1 * bound, 2.0 * bound):
            got = competitive_ratio(StrategySpec(mode, k, B, CON, mu=mu)).theoretical_ratio
            assert got == min(one + lam2 * mu, lam1), mu / bound
            assert got <= unconstrained

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_threshold_condition_compares_mu_with_it(self, mode, k):
        B = 100.0
        bound = mean_threshold(mode, k, B)
        below, above = np.nextafter(bound, 0.0), np.nextafter(bound, math.inf)
        assert threshold_condition(StrategySpec(mode, k, B, CON, mu=below))
        assert not threshold_condition(StrategySpec(mode, k, B, CON, mu=above))
        # at the bound both objectives agree, and the unconstrained density serves
        assert not threshold_condition(StrategySpec(mode, k, B, CON, mu=bound))


class TestMakeStrategy:
    def test_rw_uniform_density(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        assert strat.family == "uniform"
        assert strat.pdf(50.0) == pytest.approx(0.01, abs=1e-15)
        assert strat.pdf(-1.0) == 0.0
        assert strat.pdf(101.0) == 0.0
        assert strat.cdf(100.0) == pytest.approx(1.0, abs=1e-12)

    def test_rw_power_general_k_support(self):
        strat = make_strategy(StrategySpec(RW, 5, 100.0, UNC))
        assert strat.family == "rw_power"
        assert strat.support_max == 25.0
        q = (5.0 / 4.0) ** 4
        assert strat.pdf(10.0) == pytest.approx(4.0 * 1.1**3 / (100.0 * (q - 1.0)), rel=1e-14)

    @pytest.mark.parametrize("k", [3, 10, 10**3, 10**5, 10**7])
    def test_rw_power_pdf_matches_50_digit_arithmetic(self, k):
        # (1 + u)**(k - 2) raised the rounding of 1 + u to the power k - 2:
        # 1.1e-9 relative at k = 1e7; exp((k - 2) log1p(u)) keeps it to ulps
        strat = make_strategy(StrategySpec(RW, k, 1.0, UNC))
        assert strat.family == "rw_power"
        xs = np.linspace(0.0, strat.support_max, 100)
        got = strat.pdf(xs)
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            q = (D(k) / (k - 1)) ** (k - 1)
            for x, value in zip(xs.tolist(), got.tolist()):
                exact = (k - 1) * (1 + D(x)) ** (k - 2) / (q - 1)
                assert abs(D(value) / exact - 1) <= D("1e-14"), x

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
        # past the threshold, one density per chain size serves both variants
        for k in (3, 4, 10, 1000):
            for B in (1.0, 200.0):
                mu = 2.0 * mean_threshold(RW, k, B)
                con = make_strategy(StrategySpec(RW, k, B, CON, mu=mu))
                unc = make_strategy(StrategySpec(RW, k, B, UNC))
                assert unc.family == "rw_power"
                assert (con.family, con.params) == (unc.family, unc.params)

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

    def test_discrete_classic_cdf_of_nan_is_nan(self):
        # as for the densities; NaN is never cast to a day index
        strat = make_strategy(StrategySpec(RA, 2, 3.0, Variant.DISCRETE_CLASSIC))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isnan(strat.cdf(math.nan))
            vals = strat.cdf(np.array([math.nan, 2.0, math.inf]))
        assert math.isnan(vals[0]) and vals[1:].tolist() == [strat.cdf(2.0), 1.0]

    def test_invalid_spec_combinations(self):
        with pytest.raises(ValueError):
            StrategySpec(RA, 2, 100.0, Variant.DETERMINISTIC)
        with pytest.raises(ValueError):
            StrategySpec(RW, 2, 100.0, Variant.DISCRETE_CLASSIC)
        with pytest.raises(ValueError):
            StrategySpec(RA, 3, 100.0, Variant.DISCRETE_CLASSIC)
        with pytest.raises(ValueError):
            StrategySpec(RA, 2, 100.5, Variant.DISCRETE_CLASSIC)
        # its day tables hold B entries each, so B is capped
        assert StrategySpec(RA, 2, DISCRETE_CLASSIC_MAX_B, Variant.DISCRETE_CLASSIC).B == 1e6
        with pytest.raises(ValueError, match="1 <= B <= 1e\\+06"):
            StrategySpec(RA, 2, DISCRETE_CLASSIC_MAX_B + 1.0, Variant.DISCRETE_CLASSIC)
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
        power = GracePeriodStrategy(spec, "rw_power", {"q": 2.0})
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
        for spec, family in EVERY_FAMILY:
            strat = make_strategy(spec)
            assert strat.family == family
            a, b = stream(9, "x"), stream(9, "x")
            batch = strat.sample_batch(a, 50)
            scalars = np.array([strat.sample(b) for _ in range(50)])
            assert np.array_equal(batch, scalars), family
            assert a.u64() == b.u64()  # both consumed the same number of draws

    @pytest.mark.parametrize("spec, family", EVERY_FAMILY)
    def test_sample_is_one_draw_of_sample_batch(self, spec, family):
        strat = make_strategy(spec)
        s, twin, ref = stream(9, "one"), stream(9, "one"), stream(9, "one")
        x = strat.sample(s)
        assert type(x) is float
        assert x.hex() == float(strat.sample_batch(twin, 1)[0]).hex()
        assert s._state == twin._state
        if family == "atom":  # its point, and no draw taken
            assert x == strat.support_max and s._state == ref._state
        else:  # the scalar stream's draw through the one quantile
            assert x.hex() == float(strat.quantile(np.array([(ref.u64() >> 11) * 2**-53]))[0]).hex()
            assert s._state == ref._state

    def test_discrete_sampling_matches_pmf(self):
        strat = make_strategy(StrategySpec(RA, 2, 10.0, Variant.DISCRETE_CLASSIC))
        xs = strat.sample_batch(stream(31, "pmf"), 200_000)
        counts = np.bincount(xs.astype(int), minlength=11)[1:]
        freq = counts / len(xs)
        pmf = np.array([strat.pdf(i) for i in range(1, 11)])
        assert np.max(np.abs(freq - pmf)) < 0.004

    def test_discrete_pdf_is_the_pmf_at_days_and_zero_elsewhere(self):
        strat = make_strategy(StrategySpec(RA, 2, 10.0, Variant.DISCRETE_CLASSIC))
        days = np.arange(1.0, 11.0)
        assert np.array_equal(strat.pdf(days), strat.params["pmf"])
        assert [strat.pdf(d) for d in days] == strat.params["pmf"].tolist()
        # no day, and no cast of an infinite or huge x (a RuntimeWarning, an
        # error in this suite, before the lookup folded into pdf)
        off = [math.nan, -math.inf, -1.0, 0.0, 0.5, 1.5, 9.999, 11.0, 1e300, math.inf]
        assert strat.pdf(np.array(off)).tolist() == [0.0] * len(off)


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
    """The constrained density of ``(mode, k)`` at abort cost ``B``: a zero
    mean lies below every mean threshold."""
    return make_strategy(StrategySpec(mode, k, B, CON, mu=0.0))


# dense grid plus log-spaced tails toward 0 and 1
U_GRID = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 20001)[:-1],
    np.logspace(-12.0, -1.0, 221),
    1.0 - np.logspace(-15.0, -1.0, 281),
]))
SMALLEST_UNIFORMS = 2.0 ** -53 * np.arange(1, 65)  # the stream's first steps above 0

# the chain sizes every tabulated inverse is checked at, up to 1e7
TABLE_K = (2, 3, 10, 100, 10**4, 10**7)
MEAN_AWARE = [
    (RW, 2, "rw_log"),
    (RW, 3, "rw_shifted_power"),
    (RW, 4, "rw_shifted_power"),
    (RW, 5, "rw_shifted_power"),
    (RA, 2, "ra_expm1"),
    (RA, 3, "ra_expm1"),
    (RA, 7, "ra_expm1"),
] + [(RW, k, "rw_shifted_power") for k in TABLE_K[2:]] + [(RA, k, "ra_expm1") for k in TABLE_K[2:]]
TABLE_CASES = [case for case in MEAN_AWARE if case[1] in TABLE_K]


# the rows with a closed-form inverse; mu = 10 B fails every threshold, so a
# constrained requestor-wins spec of k >= 3 falls back to rw_power
EXACT_INVERSE = [
    (RW, 2, UNC, "uniform"),
    (RW, 5, UNC, "rw_power"),
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

    def test_make_strategy_builds_each_family_at_moderate_B(self):
        # a positive mean below the threshold resolves as the zero mean does
        for mode, k, family in MEAN_AWARE:
            mu = 0.5 * mean_threshold(mode, k, 2000.0)
            assert make_strategy(StrategySpec(mode, k, 2000.0, CON, mu=mu)).family == family


def exact_cdf(family, k, t):
    """The cdf of ``family`` at ``t = x/B``, in the current decimal context."""
    n = k - 1
    if family == "rw_log":
        return ((1 + t) * (1 + t).ln() - t) / (2 * decimal.Decimal(2).ln() - 1)
    if family == "rw_shifted_power":
        q = (decimal.Decimal(k) / n) ** n
        return ((1 + t) ** n - 1 - n * t) / (q - 2)
    g = n * ((1 / decimal.Decimal(n)).exp() - 1) - 1
    return n * (t.exp() - 1 - t) / g


@functools.lru_cache(maxsize=None)
def exact_quantile(family, k, u):
    """``t = x/B`` with ``F(t) = u``: 120 halvings of ``[0, 1/(k-1)]`` in
    80-digit arithmetic, to 1e-36 of the support."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        target = decimal.Decimal(u)
        lo, hi = decimal.Decimal(0), 1 / decimal.Decimal(k - 1)
        for _ in range(120):
            mid = (lo + hi) / 2
            if exact_cdf(family, k, mid) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def reference_newton_quantile(strat, u):
    """The per-draw inverse the tables replaced: four Newton steps on
    ``sqrt(F)`` from the linear guess, through ``_cdf_inside`` and
    ``_pdf_inside``; kept here only as a reference."""
    B, top = strat.spec.B, strat.support_max / strat.spec.B
    root_u = np.sqrt(u)
    t = root_u * top
    for _ in range(4):
        root_f = np.sqrt(strat._cdf_inside(t))
        step = np.subtract(root_f, root_u)
        step *= root_f
        step *= 2.0 / B
        np.divide(step, strat._pdf_inside(t), out=step, where=root_f > 0.0)
        t -= step
        np.clip(t, 0.0, top, out=t)
    return np.multiply(t, B, out=t)


# from 1e-30 up to 1 - 1e-15
TABLE_U = np.concatenate([
    np.geomspace(1e-30, 1e-3, 10), [0.1, 0.5, 0.9], 1.0 - np.geomspace(1e-15, 1e-3, 4),
])
NEWTON_U = np.concatenate([
    [0.0, np.nextafter(1.0, 0.0)],
    SMALLEST_UNIFORMS,
    np.linspace(0.0, 1.0, 4097)[1:-1],
    np.logspace(-30.0, -1.0, 88),
    1.0 - np.logspace(-15.0, -1.0, 57),
])


# one spec of each kind that takes draws
SAMPLED = [
    (StrategySpec(RW, 2, 100.0, UNC), "uniform"),
    (StrategySpec(RW, 3, 100.0, CON, mu=90.0), "rw_power"),
    (StrategySpec(RA, 3, 100.0, UNC), "ra_exp"),
    (StrategySpec(RW, 2, 100.0, CON, mu=10.0), "rw_log"),
    (StrategySpec(RW, 3, 100.0, CON, mu=10.0), "rw_shifted_power"),
    (StrategySpec(RA, 2, 100.0, CON, mu=10.0), "ra_expm1"),
    (StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC), "discrete_classic"),
]


class TestQuantileOut:
    @pytest.mark.parametrize("spec,family", SAMPLED, ids=[family for _, family in SAMPLED])
    def test_in_place_gives_the_same_bits(self, spec, family):
        strat = make_strategy(spec)
        assert strat.family == family
        u = np.concatenate([U_GRID, SMALLEST_UNIFORMS, [1.0]])
        kept = u.copy()
        fresh = strat.quantile(u)
        assert np.array_equal(u, kept)  # without out, u is only read
        buffer = np.empty_like(u)
        assert strat.quantile(u, out=buffer) is buffer
        assert buffer.tobytes() == fresh.tobytes()
        block = u.reshape(2, -1)
        assert strat.quantile(block, out=block) is block
        assert u.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("spec,family", SAMPLED, ids=[family for _, family in SAMPLED])
    def test_sample_batch_maps_its_stream_block(self, spec, family):
        strat = make_strategy(spec)
        for draws, twin in ((stream(9, "x"), stream(9, "x")), (streams(9, n=3), streams(9, n=3))):
            got = strat.sample_batch(draws, 40)
            assert got.tobytes() == strat.quantile(twin.uniform_batch(40)).tobytes()


class TestTabulatedInverse:
    def test_tables_serve_exactly_the_mean_aware_rows(self):
        tabulated = {
            name for name, row in _FAMILIES.items() if isinstance(row.inverse, functools.partial)
        }
        mean_aware_rows = {name for name, row in _FAMILIES.items() if row.mean_aware}
        assert tabulated == mean_aware_rows == {family for _, _, family in MEAN_AWARE}

    @pytest.mark.parametrize("B", [1e-3, 1.0, 2000.0, 1e6])
    @pytest.mark.parametrize("mode,k,family", TABLE_CASES)
    def test_relative_error_against_exact_arithmetic(self, mode, k, family, B):
        strat = mean_aware(mode, k, B)
        x = strat.quantile(TABLE_U)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for got, u in zip(x.tolist(), TABLE_U.tolist()):
                t = exact_quantile(family, k, u)
                err = abs(decimal.Decimal(got) / decimal.Decimal(B) - t)
                assert err <= decimal.Decimal("1e-12") * t, u

    @pytest.mark.parametrize("B", [1e-3, 1.0, 2000.0, 1e6])
    @pytest.mark.parametrize("mode,k,family", TABLE_CASES)
    def test_monotone_on_the_support(self, mode, k, family, B):
        strat = mean_aware(mode, k, B)
        x = strat.quantile(np.sort(np.concatenate([U_GRID, TABLE_U])))
        assert np.all(np.diff(x) >= 0.0)
        assert x[0] == 0.0 and x[-1] <= strat.support_max

    @pytest.mark.parametrize("B", [1.0, 2000.0])
    @pytest.mark.parametrize("mode,k,family", TABLE_CASES)
    def test_agrees_with_the_newton_reference(self, mode, k, family, B):
        # both invert to rounding: 64 ulps apart at most, and 0 at the same draws
        strat = mean_aware(mode, k, B)
        x, ref = strat.quantile(NEWTON_U), reference_newton_quantile(strat, NEWTON_U.copy())
        assert np.array_equal(x == 0.0, ref == 0.0)
        assert np.all(np.abs(x - ref) <= 64 * np.finfo(float).eps * ref)

    def test_built_on_first_draw_only(self):
        _inverse_table.cache_clear()
        strat = make_strategy(StrategySpec(RA, 3, 100.0, CON, mu=1.0))
        strat.pdf(np.linspace(0.0, 50.0, 11)), strat.cdf(25.0), strat.moment(25.0)
        assert _inverse_table.cache_info().currsize == 0
        strat.quantile(np.array([0.5]))
        assert _inverse_table.cache_info().currsize == 1

    def test_cache_stays_bounded(self):
        maxsize = _inverse_table.cache_info().maxsize
        for k in range(3, maxsize + 13):
            _inverse_table("ra_expm1", k)
        assert _inverse_table.cache_info().currsize == maxsize


class TestSmallUSeries:
    @pytest.mark.parametrize("mode,k", [(RW, 2), (RW, 3), (RW, 10), (RA, 2), (RA, 3), (RA, 10)])
    def test_pdf_and_cdf_equal_their_closed_forms(self, mode, k):
        # at B = 1, so x = u; the rw_log and ra_expm1 cdfs keep their closed
        # forms from u = 1/8 on, and are series below it, as the
        # rw_shifted_power cdf is everywhere (see TestShiftedPowerSmallU)
        strat = mean_aware(mode, k, 1.0)
        u = np.linspace(0.0, strat.support_max, 1001)
        closed = u >= 0.125
        if strat.family == "rw_log":
            pdf = np.log1p(u) / LN4M1
            cdf = ((1.0 + u) * np.log1p(u) - u) / LN4M1
        elif strat.family == "ra_expm1":
            pdf = (k - 1) * np.expm1(u) / _g(k)
            cdf = (k - 1) * (np.expm1(u) - u) / _g(k)
        else:
            pdf = (k - 1) * np.expm1((k - 2) * np.log1p(u)) / (_q(k) - 2.0)
            cdf = strat.cdf(u)
        assert strat.pdf(u).tobytes() == pdf.tobytes()
        assert strat.cdf(u)[closed].tobytes() == cdf[closed].tobytes()

    @pytest.mark.parametrize("mode,k", [(RW, 2), (RA, 2), (RA, 3), (RA, 10), (RA, 10**7)])
    def test_cdf_matches_exact_arithmetic(self, mode, k):
        # the closed forms cancel: 4.8e-5 relative at u = 1e-12, k = 2
        strat = mean_aware(mode, k, 1.0)
        us = np.geomspace(1e-30, strat.support_max, 121)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for u, got in zip(us.tolist(), strat.cdf(us).tolist()):
                exact = exact_cdf(strat.family, k, decimal.Decimal(u))
                assert abs(decimal.Decimal(got) - exact) <= decimal.Decimal("1e-14") * exact, u


class TestSeries:
    @staticmethod
    def reference(coefs, v, first):
        """Horner's rule from zeros plus the top coefficient, times ``v**first``."""
        acc = np.zeros_like(v) + coefs[-1]
        for c in reversed(coefs[first:-1]):
            acc = acc * v + c
        return acc * v**first

    @pytest.mark.parametrize("first", [0, 1, 2])
    @pytest.mark.parametrize("coefs", [_EXP_MOMENT, _LOG_MOMENT, _power_params(5)["binomials"]])
    def test_equals_the_reference_bit_for_bit(self, coefs, first):
        v = np.array([0.0, 5e-324, 1.0, np.nan, 0.125, 0.3, 1e-300])
        assert _series(coefs, v, first).tobytes() == self.reference(coefs, v, first).tobytes()


class TestSharedParams:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 1000, 10**7])
    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("variant", [UNC, CON])
    def test_one_read_only_mapping_per_family_and_k(self, mode, variant, k):
        mu = 0.0 if variant is CON else None
        a, b = (make_strategy(StrategySpec(mode, k, B, variant, mu=mu)) for B in (10.0, 2000.0))
        assert a.family == b.family and a.params is b.params is _params(a.family, k)
        assert a.params == _FAMILIES[a.family].params(k)
        with pytest.raises(TypeError):
            a.params["q"] = 1.0

    def test_params_built_once_per_family_and_k(self, monkeypatch):
        built = []
        for name, row in _FAMILIES.items():
            monkeypatch.setitem(_FAMILIES, name, row._replace(
                params=lambda k, name=name, f=row.params: built.append((name, k)) or f(k)
            ))
        _params.cache_clear()
        _inverse_table.cache_clear()
        try:
            for _ in range(3):
                for mode, variant, k in itertools.product((RW, RA), (UNC, CON), (2, 3, 5)):
                    spec = StrategySpec(mode, k, 100.0, variant, mu=1.0 if variant is CON else None)
                    make_strategy(spec).quantile(np.array([0.5]))
                    competitive_ratio(spec), mean_threshold(mode, k, 100.0)
        finally:
            _params.cache_clear()
            _inverse_table.cache_clear()
        assert built and len(built) == len(set(built))


class TestPowerAndExpConstants:
    def test_k2_values_are_pinned(self):
        assert _q(2) == 2.0
        assert _g(2) == math.e - 2.0

    def test_g_is_the_scalar_horner_sum(self):
        # _series run on a 0-d float64 takes the steps of a Python float loop
        for k in [*range(3, 5000), 10**5, 10**7, 2**40, 2**52]:
            t, acc = 1.0 / (k - 1), 0.0
            for c in reversed(_EXPM1_RATIO):
                acc = acc * t + c
            g = _g(k)
            assert type(g) is float and g.hex() == (acc * t).hex(), k

    @pytest.mark.parametrize("k", [3, 4, 10, 100, 10**4, 10**6])
    def test_relative_error_at_rounding_level(self, k):
        # q - 2 and g against 40-digit decimal arithmetic; the direct forms
        # (k/(k-1))**(k-1) and (k-1)*expm1(1/(k-1)) - 1 drift to 2e-11 and
        # 4e-11 at k = 1e6
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            t = decimal.Decimal(1) / (k - 1)
            q = (1 + t) ** (k - 1)
            g = (k - 1) * (t.exp() - 1) - 1
            assert abs((decimal.Decimal(_q(k)) - q) / (q - 2)) < decimal.Decimal("1e-15")
            assert abs((decimal.Decimal(_g(k)) - g) / g) < decimal.Decimal("1e-15")


def shifted_power(k):
    """The rw_shifted_power density at ``B = 1``, where ``x = u`` exactly."""
    strat = make_strategy(StrategySpec(RW, k, 1.0, CON, mu=1e-4))
    assert strat.family == "rw_shifted_power"
    return strat


class TestShiftedPowerSmallU:
    @pytest.mark.parametrize("k", [3, 4, 5, 10, 100])
    def test_cdf_matches_exact_arithmetic(self, k):
        # written as (1+u)**(k-1) - 1 - (k-1)u, it is rounding noise below
        # u ~ 1e-15: a relative error of 1e30 at u = 1e-30
        strat = shifted_power(k)
        q = Fraction(k, k - 1) ** (k - 1)
        us = np.geomspace(1e-30, 1.0 / (k - 1), 121)
        for u, got in zip(us.tolist(), strat.cdf(us).tolist()):
            t = Fraction(u)
            exact = ((1 + t) ** (k - 1) - 1 - (k - 1) * t) / (q - 2)
            assert abs(Fraction(got) - exact) <= Fraction(1e-13) * exact, u

    @pytest.mark.parametrize("k", [3, 4, 5, 10, 100])
    def test_quantile_monotone_and_inverse_near_zero(self, k):
        strat = shifted_power(k)
        x = strat.quantile(np.geomspace(5e-17, 5e-15, 401))  # around 5e-16
        assert np.all(np.diff(x) > 0.0)
        deep = np.geomspace(1e-30, 1e-10, 201)
        assert np.allclose(strat.cdf(strat.quantile(deep)), deep, rtol=1e-12, atol=0.0)


class TestPowerInverse:
    @pytest.mark.parametrize("k", [3, 10, 10**5, 10**6, 10**7])
    def test_quantile_inverts_cdf_to_rounding(self, k):
        # B*((1 + u(q-1))**(1/(k-1)) - 1) was off by 2.7e-4 at k = 3 and 10
        # and returned 0 from k = 1e5 on
        strat = make_strategy(StrategySpec(RW, k, 100.0, CON, mu=1e6))
        assert strat.family == "rw_power"
        us = np.array([1e-12, 1e-6, 1e-3, 0.3, 0.9, 0.999999])
        assert np.max(np.abs(strat.cdf(strat.quantile(us)) - us) / us) <= 1e-14


class TestDerivedFields:
    def test_kind_and_support_follow_the_family_and_spec(self):
        names = [f.name for f in dataclasses.fields(GracePeriodStrategy)]
        assert names == ["spec", "family", "params"]
        cases = [
            (StrategySpec(RW, 3, 10.0, Variant.DETERMINISTIC), StrategyKind.ATOM),
            (StrategySpec(RA, 2, 10.0, Variant.DISCRETE_CLASSIC), StrategyKind.DISCRETE_PMF),
            (StrategySpec(RA, 4, 10.0, UNC), StrategyKind.CONTINUOUS_PDF),
        ]
        for spec, kind in cases:
            strat = make_strategy(spec)
            assert strat.kind is kind
            assert strat.support_max == spec.support_max


NONFINITE = [math.inf, -math.inf, math.nan]


class TestDomainChecks:
    """Every entry point that takes a chain size or an abort cost rejects a
    nonfinite one by name."""

    @pytest.mark.parametrize("k", NONFINITE + [1, 2.5])
    def test_chain_size(self, k):
        calls = [
            lambda: StrategySpec(RW, k, 10.0, UNC),
            lambda: det_threshold(k, 10.0),
            lambda: det_competitive_ratio(k),
            lambda: worst_case_for_det(k, 10.0),
            lambda: lagrange_corner(RA, k, 10.0, constrained=True),
            lambda: mean_threshold(RW, k, 10.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="chain size k must be an integer >= 2"):
                call()

    @pytest.mark.parametrize("B", NONFINITE + [0.0, -1.0, 10**400])  # an int past the float range
    def test_abort_cost(self, B):
        calls = [
            lambda: StrategySpec(RW, 2, B, UNC),
            lambda: det_threshold(2, B),
            lambda: worst_case_for_det(2, B),
            lambda: PolicyConfig(UNC, B),
            lambda: lagrange_corner(RW, 3, B, constrained=False),
            lambda: mean_threshold(RA, 2, B),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="abort cost B must be positive and finite"):
                call()

    # 2*B overflowed from about 9e307, and a subnormal B made the densities infinite
    @pytest.mark.parametrize("B", [1e308, 9e307, 1.01e250, 9.9e-251, 5e-324])
    def test_abort_cost_outside_the_documented_range(self, B):
        with pytest.raises(ValueError, match=r"in \[1e-250, 1e\+250\], got"):
            StrategySpec(RW, 2, B, CON, mu=1.0)
        with pytest.raises(ValueError, match="abort cost B"):
            PolicyConfig(CON, B, mu=1.0)

    @pytest.mark.parametrize("B", [MIN_ABORT_COST, MAX_ABORT_COST])
    @pytest.mark.parametrize("k", [2, 2**53 - 1])
    def test_every_quantity_is_finite_at_the_range_ends(self, B, k):
        assert (MIN_ABORT_COST, MAX_ABORT_COST) == (1e-250, 1e250)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow or a division by zero fails
            for mode in (RW, RA):
                threshold = mean_threshold(mode, k, B)
                assert 0.0 < threshold < math.inf
                for constrained in (False, True):
                    lam1, lam2 = lagrange_corner(mode, k, B, constrained)
                    assert 0.0 < lam1 < math.inf
                    assert (0.0 < lam2 < math.inf) if constrained else lam2 == 0.0
                # mu = 0 resolves to the mean-aware density, mu = None to the other
                for variant, mu in ((UNC, None), (CON, 0.0)):
                    strat = make_strategy(StrategySpec(mode, k, B, variant, mu=mu))
                    S = strat.support_max
                    assert 0.0 < S < math.inf
                    at_zero, at_top = strat.pdf(np.array([0.0, S]))
                    assert 0.0 <= at_zero < math.inf and 0.0 < at_top < math.inf
                    assert (at_zero > 0.0) != strat.mean_aware  # mean-aware ones vanish at 0
                    cost = float(conflict_cost(mode, k, B, S, S))
                    assert 0.0 < cost < math.inf
            det = make_strategy(StrategySpec(RW, k, B, Variant.DETERMINISTIC))
            assert 0.0 < float(conflict_cost(RW, k, B, det.support_max, det.support_max)) < math.inf


    @pytest.mark.parametrize("mu", NONFINITE + [-1.0, 10**400])
    def test_mean(self, mu):
        with pytest.raises(ValueError, match="mean mu must be nonnegative"):
            StrategySpec(RW, 2, 10.0, CON, mu=mu)


class TestStackedPdf:
    # every continuous family, at chain sizes and abort costs far apart
    SPECS = [
        StrategySpec(mode, k, B, variant, mu=mu)
        for mode in (RW, RA)
        for k in (2, 3, 7, 10**6)
        for B in (1e-3, 10.0, 2000.0)
        for variant, mu in ((UNC, None), (CON, 0.0))
    ]

    def test_equals_each_pdf_bit_for_bit(self):
        strats = [make_strategy(spec) for spec in self.SPECS]
        assert {s.family for s in strats} == set(_FAMILIES)
        grids = [np.linspace(0.0, s.support_max, 257) for s in strats]
        # every strategy's grid, interleaved, in one call
        which = np.tile(np.arange(len(strats)), 257)
        x = np.array(grids).T.ravel()
        got = stacked_pdf(strats)(x, which)
        for i, (strat, grid) in enumerate(zip(strats, grids)):
            assert np.array_equal(got[which == i], strat.pdf(grid)), (strat.family, strat.spec)

    def test_one_family_and_repeated_members(self):
        strat = make_strategy(StrategySpec(RA, 3, 50.0, UNC))
        x = np.linspace(0.0, strat.support_max, 33)
        got = stacked_pdf([strat, strat])(np.concatenate([x, x]), np.repeat([1, 0], 33))
        assert np.array_equal(got, np.tile(strat.pdf(x), 2))

    @pytest.mark.parametrize("spec", [
        StrategySpec(RW, 2, 10.0, Variant.DETERMINISTIC),
        StrategySpec(RA, 2, 10.0, Variant.DISCRETE_CLASSIC),
    ])
    def test_continuous_densities_only(self, spec):
        with pytest.raises(ValueError, match="continuous densities only"):
            stacked_pdf([make_strategy(StrategySpec(RW, 2, 10.0, UNC)), make_strategy(spec)])


class TestMoment:
    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [2, 3, 10, 100])
    def test_matches_quadrature(self, mode, k):
        B = 100.0
        for variant, mu in ((UNC, None), (CON, 1e-4 * B), (CON, 10.0 * B)):
            strat = make_strategy(StrategySpec(mode, k, B, variant, mu=mu))
            S = strat.support_max
            # 0.125 S and its neighbours straddle rw_log's switch from series
            xs = np.array([1e-9, 1e-3, 0.125 - 1e-12, 0.125, 0.125 + 1e-12, 0.6, 1.0]) * S
            for x, m in zip(xs, strat.moment(xs)):
                ref = adaptive_simpson(
                    lambda t, _: t * strat.pdf(t), 0.0, x, rel_tol=1e-13, abs_tol=0.0
                )
                assert m == pytest.approx(ref, rel=1e-10), (strat.family, x / S)

    def test_past_the_support_is_the_mean(self):
        for mode, k in ((RW, 2), (RW, 4), (RA, 3)):
            strat = make_strategy(StrategySpec(mode, k, 50.0, CON, mu=0.5))
            S = strat.support_max
            assert strat.moment(S) > 0.0
            assert strat.moment(2.0 * S) == strat.moment(S)
            assert list(strat.moment(np.array([-1.0, 0.0]))) == [0.0, 0.0]

    @pytest.mark.parametrize("k, B", [(2, 100.0), (3, 7.0), (10, 1e-3), (2, 1e6)])
    def test_atom_is_a_step_at_its_point(self, k, B):
        strat = make_strategy(StrategySpec(RW, k, B, Variant.DETERMINISTIC))
        S = strat.support_max
        below = [-1.0, 0.0, 0.5 * S, np.nextafter(S, 0.0)]
        at_or_past = [S, np.nextafter(S, np.inf), 1.5 * S, 1e250]
        xs = np.array(below + at_or_past + [math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F, M = strat.cdf(xs), strat.moment(xs)
            assert math.isnan(strat.cdf(math.nan)) and math.isnan(strat.moment(math.nan))
        assert F[:-1].tolist() == [0.0] * 4 + [1.0] * 4
        assert M[:-1].tolist() == [0.0] * 4 + [S] * 4
        assert math.isnan(F[-1]) and math.isnan(M[-1])
        assert (strat.cdf(S), strat.moment(S)) == (1.0, S)

    @pytest.mark.parametrize("B", [1, 2, 3, 12])
    def test_day_pmf_sums_match_exact_pmf(self, B):
        # F(x) = sum of pmf_i and M(x) = sum of i*pmf_i over the days i <= x
        strat = make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        xs = np.arange(-1.0, B + 2.0, 0.5)
        F, M = strat.cdf(xs), strat.moment(xs)
        for x, f, m in zip(xs, F, M):
            days = range(1, min(math.floor(x), B) + 1)
            assert f == pytest.approx(float(sum(map(strat.exact_pmf, days), Fraction(0))),
                                      rel=1e-15, abs=0.0), x
            assert m == pytest.approx(float(sum((i * strat.exact_pmf(i) for i in days),
                                                Fraction(0))), rel=1e-15, abs=0.0), x
        assert strat.moment(B + 1.0) == strat.moment(1e300)  # the mean past the last day
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isnan(strat.moment(math.nan))


class TestRegimesAndRatios:
    def test_unconstrained_ratio_values(self):
        assert competitive_ratio(StrategySpec(RW, 2, 100.0, UNC)).theoretical_ratio == 2.0
        q = (7.0 / 6.0) ** 6
        got = competitive_ratio(StrategySpec(RW, 7, 100.0, UNC)).theoretical_ratio
        assert got == pytest.approx(q / (q - 1.0), rel=1e-14)
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

    def test_discrete_classic_reports_granular_optimum(self):
        # the exact day-granular ratio, which worst_case_ratio attains; the
        # continuous e/(e-1) is only its limit, approached from below
        report = competitive_ratio(StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC))
        exact = 1 / (1 - Fraction(99, 100) ** 100)
        assert report.theoretical_ratio == pytest.approx(float(exact), abs=1e-12)
        assert report.theoretical_ratio < math.e / (math.e - 1.0)

    def test_every_corner_satisfies_the_cost_identity(self):
        # a strategy either has an equalizing corner that its density meets
        # along the whole support, or says it has none
        checked, refused = set(), set()
        for mode, variant, k, B, mu in itertools.product(
            (RW, RA), Variant, (2, 3, 5), (3.0, 100.0), (None, 1.0, 20.0, 500.0)
        ):
            try:
                strategy = make_strategy(StrategySpec(mode, k, B, variant, mu=mu))
            except ValueError:
                continue  # no such strategy
            if strategy.kind is not StrategyKind.CONTINUOUS_PDF:
                refused.add((strategy.family, k >= 3))
                continue
            corner = lagrange_corner(mode, k, B, strategy.mean_aware)
            key = (strategy.family, mode, k, B, mu if strategy.mean_aware else None)
            if key not in checked:
                checked.add(key)
                assert lagrange_identity_check(strategy, *corner).passed, key
        assert {family for family, *_ in checked} == {
            "uniform", "rw_log", "rw_shifted_power", "rw_power", "ra_exp", "ra_expm1"
        }
        assert refused == {("atom", False), ("atom", True), ("discrete_classic", False)}

    def test_regime_ordering_below_threshold(self):
        for mode in (RW, RA):
            for k in (2, 3, 5):
                for B in (10.0, 100.0):
                    mu = 0.5 * mean_threshold(mode, k, B)
                    con = competitive_ratio(StrategySpec(mode, k, B, CON, mu=mu))
                    unc = competitive_ratio(StrategySpec(mode, k, B, UNC))
                    assert con.regime == "constrained"
                    assert con.theoretical_ratio < unc.theoretical_ratio

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
    below = np.array([-1e300, -1.0, 0.0])  # every family's closed forms are +0 at 0
    for at_or_below_zero in (strat.cdf(below), strat.moment(below)):
        assert at_or_below_zero.tolist() == [0.0] * 3 and not np.signbit(at_or_below_zero).any()
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
