import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graceperiod.costmodel import (
    batch_expected_costs,
    batch_ratios,
    conflict_cost,
    expected_cost,
    opt_cost,
    ratio_profile,
)
from graceperiod.quadrature import adaptive_simpson
from graceperiod.strategy import (
    ConflictMode,
    StrategySpec,
    Variant,
    competitive_ratio,
    lagrange_corner,
    make_strategy,
)

RW = ConflictMode.REQUESTOR_WINS
RA = ConflictMode.REQUESTOR_ABORTS
UNC = Variant.RANDOMIZED_UNCONSTRAINED
CON = Variant.RANDOMIZED_CONSTRAINED
COST_KS = (2, 3, 5, 10)


# one strategy of each family, for the one-point view of the batch
ONE_POINT_SPECS = [
    StrategySpec(RW, 3, 100.0, Variant.DETERMINISTIC),
    StrategySpec(RW, 2, 100.0, UNC),
    StrategySpec(RW, 3, 100.0, UNC),
    StrategySpec(RW, 2, 100.0, CON, mu=0.1),
    StrategySpec(RW, 3, 100.0, CON, mu=0.1),
    StrategySpec(RA, 2, 100.0, UNC),
    StrategySpec(RA, 3, 100.0, CON, mu=0.1),
    StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC),
]


def cost_cases(mode, k, B=100.0):
    """The unconstrained, the mean-aware and the fallback strategy of ``(mode, k)``."""
    return [
        make_strategy(StrategySpec(mode, k, B, UNC)),
        make_strategy(StrategySpec(mode, k, B, CON, mu=1e-3 * B)),
        make_strategy(StrategySpec(mode, k, B, CON, mu=10.0 * B)),
    ]


class TestPointwise:
    def test_rw_commit_branch(self):
        assert conflict_cost(RW, 2, 100.0, 50.0, 30.0) == 30.0  # (k-1)*y

    def test_rw_abort_branch(self):
        assert conflict_cost(RW, 2, 100.0, 50.0, 80.0) == 200.0  # k*x + B

    def test_ra_abort_branch_general_k(self):
        assert conflict_cost(RA, 3, 100.0, 50.0, 80.0) == 300.0  # (k-1)*(x+B)

    def test_tie_aborts_in_both_modes(self):
        assert conflict_cost(RW, 2, 100.0, 50.0, 50.0) == 200.0
        assert conflict_cost(RA, 2, 100.0, 50.0, 50.0) == 150.0

    def test_float_points_give_a_0d_array(self):
        got = conflict_cost(RA, 2, 100.0, 50.0, 30.0)
        assert isinstance(got, np.ndarray) and got.shape == () and float(got) == 30.0


def where_reference(mode, k, B, x, y):
    """``conflict_cost`` as a two-branch formula, the abort branch in full."""
    x, y = np.asarray(x), np.asarray(y)
    abort = k * x + B if mode is RW else (k - 1) * (x + B)
    return np.where(y < x, (k - 1) * y, abort)


GRID = np.linspace(0.0, 100.0, 12).reshape(3, 4)
COLUMN = np.array([[5.0], [50.0], [95.0]])
CONTRACT_POINTS = {
    "floats": (50.0, 30.0),
    "float_tie": (50.0, 50.0),
    "0d": (np.array(50.0), np.array(80.0)),
    "lists": ([10.0, 50.0, 90.0], [20.0, 50.0, 10.0]),
    "ints": (np.array([10, 50, 90]), np.array([20, 50, 10])),
    "column_y": (GRID, COLUMN),
    "column_x": (COLUMN, GRID),
    "tie": (GRID, GRID),
}


class TestPointwiseContract:
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("case", CONTRACT_POINTS)
    def test_same_bits_as_the_where_reference(self, case, mode, k):
        x, y = CONTRACT_POINTS[case]
        kept = np.array(x, copy=True)
        got = conflict_cost(mode, k, 100.0, x, y)
        ref = where_reference(mode, k, 100.0, x, y)
        assert isinstance(got, np.ndarray)
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(np.asarray(x), kept)  # the abort branch is a new array


class TestOptCost:
    def test_values(self):
        assert opt_cost(2, 100.0, 30.0) == 30.0
        assert opt_cost(3, 100.0, 80.0) == 100.0
        assert opt_cost(2, 100.0, 250.0) == 100.0

    def test_vanishes_with_remaining_time(self):
        assert opt_cost(4, 100.0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_elementwise(self):
        # integer chain sizes against float remaining times and abort costs,
        # the way the simulator's event records pass them
        ks, bs = np.array([2, 3, 8, 2]), np.array([100.0, 100.0, 50.0, 7.0])
        ys = np.array([30.0, 80.0, 5.0, 7.0])
        got = opt_cost(ks, bs, ys)
        assert got.dtype == np.float64
        assert got.tolist() == [30.0, 100.0, 35.0, 7.0]
        assert got.tolist() == [min((k - 1) * y, b) for k, b, y in zip([2, 3, 8, 2], bs, ys)]

    def test_into_a_buffer(self):
        # bench writes each distribution's optimum into one run-long buffer
        ys = np.linspace(0.5, 300.0, 1001)
        for k, b in ((2, 100.0), (3, 100.0), (np.array([2, 5] * 500 + [3]), 40.0)):
            buf = np.full(ys.size, np.nan)
            assert opt_cost(k, b, ys, out=buf) is buf
            assert np.array_equal(buf, np.minimum((k - 1) * ys, b))


class TestExpectedCost:
    def test_rw_uniform_k2_is_twice_y(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        for y in (1.0, 17.0, 50.0, 99.0, 100.0):
            got = expected_cost(strat, y)
            assert got == pytest.approx(2.0 * y, rel=1e-9)

    def test_atom_at_tie(self):
        for k in (2, 3, 5):
            strat = make_strategy(StrategySpec(RW, k, 100.0, Variant.DETERMINISTIC))
            y = 100.0 / (k - 1)
            got = expected_cost(strat, y)
            assert got == pytest.approx(k * 100.0 / (k - 1) + 100.0, rel=1e-12)

    def test_vanishes_as_y_to_zero(self):
        for spec in (StrategySpec(RW, 2, 100.0, UNC), StrategySpec(RA, 3, 100.0, UNC)):
            strat = make_strategy(spec)
            got = expected_cost(strat, 1e-9)
            assert got < 1e-6

    def test_ra_exponential_k2_equalizes(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, UNC))
        target = math.e / (math.e - 1.0)
        for y in (5.0, 50.0, 100.0):
            got = expected_cost(strat, y)
            assert got == pytest.approx(target * y, rel=1e-9)

    def test_discrete_classic_equalizes_on_integer_days(self):
        B = 20
        strat = make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        flat = 1.0 / (1.0 - (1.0 - 1.0 / B) ** B)
        for d in (1, 7, 13, 20, 35):
            assert expected_cost(strat, float(d)) == pytest.approx(
                flat * min(d, B), rel=1e-12
            )

    @pytest.mark.parametrize("y", [0.0, -1.0, math.inf, math.nan, 10**400])
    def test_rejects_a_nonpositive_or_nonfinite_y(self, y):
        # mode, k and B come from the spec, which checks them; only y is left
        strat = make_strategy(StrategySpec(RW, 2, 10.0, UNC))
        with pytest.raises(ValueError, match=r"remaining time y must be positive and finite"):
            expected_cost(strat, y)

    @pytest.mark.parametrize("variant", [UNC, Variant.DISCRETE_CLASSIC])
    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_batch_rejects_a_nonfinite_y(self, variant, y):
        # a NaN must not spread, nor an inf turn into NaN through inf * 0 in y(1-F)
        strat = make_strategy(StrategySpec(RA, 2, 10.0, variant))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ys in (np.array([5.0, y]), y):
                with pytest.raises(ValueError, match=r"remaining times y must be finite"):
                    batch_expected_costs(strat, ys)
            # batch_ratios rejects -inf as nonpositive first
            with pytest.raises(ValueError, match=r"must be finite|strictly positive"):
                batch_ratios(strat, np.array([5.0, y]))

    @pytest.mark.parametrize("spec", ONE_POINT_SPECS)
    def test_one_point_of_the_batch(self, spec):
        strat = make_strategy(spec)
        for y in (1e-6, 0.5, 7.0, 33.3, 100.0, 1e9):
            got = expected_cost(strat, y)
            assert type(got) is float
            assert got == float(batch_expected_costs(strat, [y])[0]), (strat.family, y)

    def test_one_point_cases_cover_every_family(self):
        assert {make_strategy(s).family for s in ONE_POINT_SPECS} == {
            "atom", "uniform", "rw_power", "rw_log", "rw_shifted_power",
            "ra_exp", "ra_expm1", "discrete_classic",
        }

    @pytest.mark.parametrize("B", [3, 10, 100, 1000])
    def test_discrete_classic_flat_past_the_last_day(self, B):
        # every day aborts once y >= B: y must not leak through a cumulative
        # mass that misses 1 by rounding, nor through an integer cast past 2**63
        strat = make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        ys = np.array([B, 2.0 * B, 1e18, 1e19, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            costs = batch_expected_costs(strat, ys)
            ratios = batch_ratios(strat, ys)
        assert np.all(costs == costs[0]), costs.tolist()
        assert costs[0] == pytest.approx(B / (1.0 - (1.0 - 1.0 / B) ** B), rel=1e-12)
        assert np.all(ratios == costs[0] / B), ratios.tolist()

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("B", [1e-3, 7.0, 100.0, 1e6])
    def test_atom_costs_are_its_conflict_cost(self, k, B):
        # F = 1[y >= S] and M = S*F in the one formula give conflict_cost at S
        strat = make_strategy(StrategySpec(RW, k, B, Variant.DETERMINISTIC))
        S = strat.support_max
        ys = np.array([1e-300, 0.5 * S, np.nextafter(S, 0.0), S, np.nextafter(S, np.inf),
                       1.5 * S, 1e250])
        got = batch_expected_costs(strat, ys)
        assert np.array_equal(got, conflict_cost(RW, k, B, S, ys)), got.tolist()

    @pytest.mark.parametrize("spec", [
        StrategySpec(RW, 2**52, 1e250, Variant.DETERMINISTIC),
        StrategySpec(RW, 2**52, 1e250, UNC),
        StrategySpec(RA, 3, 1e250, CON, mu=1e249),
        StrategySpec(RA, 2, 1e6, Variant.DISCRETE_CLASSIC),
    ])
    def test_finite_past_the_support_at_any_y(self, spec):
        # every grace aborts there: (k-1)*y overflowed and inf * 0 gave NaN
        strat = make_strategy(spec)
        ys = np.array([2.0 * strat.support_max, 1e300, sys.float_info.max])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            costs = batch_expected_costs(strat, ys)
        assert np.isfinite(costs).all() and np.all(costs == costs[0]), costs.tolist()

    @pytest.mark.parametrize("B", [1, 2, 3, 12])
    def test_discrete_classic_matches_exact_sums(self, B):
        # day i aborts at i - 1 + B iff i <= y, and otherwise y is waited out
        strat = make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        ys = np.arange(0.5, B + 2.0, 0.5)
        for y, got in zip(ys, batch_expected_costs(strat, ys)):
            yq = Fraction(y)
            exact = sum(
                strat.exact_pmf(i) * (i - 1 + B if i <= yq else yq) for i in range(1, B + 1)
            )
            assert got == pytest.approx(float(exact), rel=1e-15, abs=0.0), y

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", COST_KS)
    def test_exact_costs_match_quadrature(self, mode, k):
        # the closed-form costs against an independent integral: adaptive
        # Simpson of conflict_cost * pdf over the aborting graces, plus the
        # mass above y, which commits
        B = 100.0
        for strat in cost_cases(mode, k, B):
            S = strat.support_max
            ys = np.array([1e-6, 0.3, 1.0, 2.0]) * S
            for y, cost in zip(ys, batch_expected_costs(strat, ys)):
                cut = min(y, S)
                head = adaptive_simpson(
                    lambda x, _: conflict_cost(mode, k, B, x, y) * strat.pdf(x), 0.0, cut,
                    rel_tol=1e-13, abs_tol=0.0,
                )
                tail = adaptive_simpson(
                    lambda x, _: strat.pdf(x), cut, S, rel_tol=1e-13, abs_tol=0.0
                )
                assert cost == pytest.approx(head + (k - 1) * y * tail, rel=1e-9), (strat, y)
                assert expected_cost(strat, y) == cost

    @pytest.mark.parametrize("mode", [RW, RA])
    @pytest.mark.parametrize("k", [100, 10**4, 10**7])
    @pytest.mark.parametrize("B", [1e-3, 1.0, 2000.0, 1e6])
    def test_exact_costs_match_quadrature_at_extreme_k(self, mode, k, B):
        # the same reference in one batched pass per piece: conflict_cost * pdf
        # over the aborting graces [0, min(y, S)], and the mass above, which
        # commits.  At k = 1e7, (1+u)**(k-2) carries ~1e-9 of rounding, so the
        # integrals run at the default rel_tol (worst gap 2.4e-10, rw_power, y = 0.01 S).
        for variant, mu in ((UNC, None), (CON, 0.0)):
            strat = make_strategy(StrategySpec(mode, k, B, variant, mu=mu))
            assert strat.mean_aware is (variant is CON)
            S = strat.support_max
            ys = np.array([1e-6, 0.01, 0.3, 0.99, 1.0, 2.0]) * S
            cuts = np.minimum(ys, S)
            head = adaptive_simpson(
                lambda x, _: conflict_cost(mode, k, B, x, x) * strat.pdf(x), 0.0, cuts, abs_tol=0.0
            )
            tail = adaptive_simpson(lambda x, _: strat.pdf(x), cuts, S, abs_tol=0.0)
            np.testing.assert_allclose(
                batch_expected_costs(strat, ys), head + (k - 1) * ys * tail, rtol=1e-9, atol=0.0,
                err_msg=strat.family,
            )

    def test_flat_past_the_support(self):
        # every grace aborts once y >= S, even where the cdf at S is 1 +- an ulp
        for mode in (RW, RA):
            for k in COST_KS:
                for strat in cost_cases(mode, k):
                    S = strat.support_max
                    costs = batch_expected_costs(strat, np.array([1.0, 1.5, 1e6]) * S)
                    assert costs[0] == costs[1] == costs[2], strat

    def test_cost_cases_cover_every_table_family(self):
        families = {s.family for mode in (RW, RA) for k in COST_KS for s in cost_cases(mode, k)}
        assert families == {
            "uniform", "rw_log", "rw_shifted_power", "rw_power", "ra_exp", "ra_expm1"
        }


class TestRatioProfile:
    def test_rw_uniform_flat_at_two(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        grid = np.linspace(0.05, 100.0, 500)
        for y, r in ratio_profile(strat, grid):
            assert abs(r - 2.0) < 1e-9

    def test_det_tie_ratio(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, Variant.DETERMINISTIC))
        [(_, r)] = ratio_profile(strat, [100.0])
        assert r == pytest.approx(3.0, rel=1e-12)

    def test_ratio_at_least_one(self):
        for spec in (
            StrategySpec(RW, 2, 100.0, UNC),
            StrategySpec(RW, 3, 100.0, CON, mu=5.0),
            StrategySpec(RA, 5, 100.0, UNC),
            StrategySpec(RA, 2, 100.0, CON, mu=10.0),
        ):
            strat = make_strategy(spec)
            grid = np.linspace(strat.support_max / 400, strat.support_max * 1.5, 400)
            for _, r in ratio_profile(strat, grid):
                assert r >= 1.0 - 1e-9

    def test_beyond_support_uses_abort_cost_over_b(self):
        strat = make_strategy(StrategySpec(RW, 3, 100.0, UNC))
        [(_, r1), (_, r2)] = ratio_profile(strat, [80.0, 200.0])
        assert r1 == pytest.approx(r2, rel=1e-9)  # always-abort plateau
        # at the corner q/(q-1), q = (3/2)**2
        assert r1 == pytest.approx(1.8, rel=1e-12)

    def test_nonpositive_grid_rejected(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        with pytest.raises(ValueError):
            ratio_profile(strat, [0.0, 1.0])

    def test_grid_max_below_competitive_ratio(self):
        cases = [
            StrategySpec(RW, 2, 10.0, UNC),
            StrategySpec(RW, 5, 200.0, UNC),
            StrategySpec(RA, 2, 10.0, UNC),
            StrategySpec(RA, 3, 200.0, UNC),
            StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC),
        ]
        for spec in cases:
            strat = make_strategy(spec)
            bound = competitive_ratio(spec).theoretical_ratio
            if spec.variant is Variant.DISCRETE_CLASSIC:
                grid = np.arange(1.0, spec.B + 3.0)
            else:
                grid = np.linspace(strat.support_max / 2000, strat.support_max * 1.5, 2000)
            worst = max(r for _, r in ratio_profile(strat, grid))
            assert worst <= bound + 1e-6


class TestLagrangeIdentity:
    def test_identity_along_support(self):
        # Cost(p, y) / ((k-1) y) must be linear in y with the corner coefficients
        for mode, k, B, constrained in [
            (RW, 2, 100.0, False), (RW, 2, 100.0, True),
            (RW, 3, 10.0, True), (RW, 5, 100.0, True),
            (RA, 2, 100.0, False), (RA, 2, 100.0, True),
            (RA, 3, 10.0, True), (RA, 5, 100.0, True),
        ]:
            if constrained:
                strat = make_strategy(StrategySpec(mode, k, B, CON, mu=0.001 * B))
            else:
                strat = make_strategy(StrategySpec(mode, k, B, UNC))
            lam1, lam2 = lagrange_corner(mode, k, B, constrained)
            S = strat.support_max
            for frac in (0.1, 0.35, 0.6, 0.85, 1.0):
                y = frac * S
                cost = expected_cost(strat, y)
                line = lam1 + lam2 * y
                assert cost / ((k - 1) * y) == pytest.approx(line, rel=1e-8)

    def test_cdf_derivative_matches_pdf(self):
        for spec in (
            StrategySpec(RW, 2, 100.0, CON, mu=10.0),
            StrategySpec(RA, 4, 100.0, CON, mu=1.0),
            StrategySpec(RA, 2, 100.0, UNC),
        ):
            strat = make_strategy(spec)
            S = strat.support_max
            h = S * 1e-6
            for frac in (0.2, 0.5, 0.8):
                x = frac * S
                numeric = (strat.cdf(x + h) - strat.cdf(x - h)) / (2.0 * h)
                assert numeric == pytest.approx(strat.pdf(x), rel=1e-5)


class TestRatioScans:
    def test_ratio_scans_do_not_import_numpy_ma(self):
        # np.unique's first call imports numpy.ma, ~15 ms on every cold verify
        script = (
            "import sys\n"
            "from graceperiod.costmodel import batch_expected_costs\n"
            "from graceperiod.oracle import worst_case_ratio\n"
            "from graceperiod.strategy import ConflictMode, StrategySpec, Variant, make_strategy\n"
            "for variant in (Variant.RANDOMIZED_CONSTRAINED, Variant.DETERMINISTIC):\n"
            "    spec = StrategySpec(ConflictMode.REQUESTOR_WINS, 2, 100.0, variant, mu=10.0)\n"
            "    s = make_strategy(spec)\n"
            "    batch_expected_costs(s, [0.5, 50.0, 50.0, 150.0])\n"
            "    worst_case_ratio(s)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from([RW, RA]),
    k=st.integers(min_value=2, max_value=8),
    b=st.floats(min_value=0.5, max_value=500.0),
    y=st.floats(min_value=1e-3, max_value=800.0),
    x=st.floats(min_value=0.0, max_value=800.0),
)
def test_property_cost_decomposition(mode, k, b, y, x):
    total = conflict_cost(mode, k, b, x, y)
    delay, abort = (k * x, b) if mode is RW else ((k - 1) * x, (k - 1) * b)
    if y < x:
        assert total == (k - 1) * y
    else:  # (k-1)*(x+B) and (k-1)*x + (k-1)*B may differ in the last bit
        assert total == pytest.approx(delay + abort, rel=1e-15)
    assert total >= 0.0
    # the offline optimum lower-bounds every realizable conflict cost
    assert opt_cost(k, b, y) <= total * (1.0 + 1e-12) + 1e-12
