import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graceperiod.costmodel import (
    ConflictInstance,
    batch_expected_costs,
    conflict_cost,
    expected_cost,
    opt_cost,
    ratio_profile,
)
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

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            ConflictInstance(RW, 2, 100.0, 0.0)
        with pytest.raises(ValueError):
            ConflictInstance(RW, 2, -1.0, 10.0)
        with pytest.raises(ValueError):
            ConflictInstance(RW, 1, 100.0, 10.0)


class TestOptCost:
    def test_values(self):
        assert opt_cost(ConflictInstance(RW, 2, 100.0, 30.0)) == 30.0
        assert opt_cost(ConflictInstance(RW, 3, 100.0, 80.0)) == 100.0
        assert opt_cost(ConflictInstance(RA, 2, 100.0, 250.0)) == 100.0

    def test_vanishes_with_remaining_time(self):
        assert opt_cost(ConflictInstance(RW, 4, 100.0, 1e-12)) == pytest.approx(0.0, abs=1e-11)


class TestExpectedCost:
    def test_rw_uniform_k2_is_twice_y(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        for y in (1.0, 17.0, 50.0, 99.0, 100.0):
            got = expected_cost(strat, ConflictInstance(RW, 2, 100.0, y))
            assert got == pytest.approx(2.0 * y, rel=1e-9)

    def test_atom_at_tie(self):
        for k in (2, 3, 5):
            strat = make_strategy(StrategySpec(RW, k, 100.0, Variant.DETERMINISTIC))
            y = 100.0 / (k - 1)
            got = expected_cost(strat, ConflictInstance(RW, k, 100.0, y))
            assert got == pytest.approx(k * 100.0 / (k - 1) + 100.0, rel=1e-12)

    def test_vanishes_as_y_to_zero(self):
        for spec in (StrategySpec(RW, 2, 100.0, UNC), StrategySpec(RA, 3, 100.0, UNC)):
            strat = make_strategy(spec)
            got = expected_cost(strat, ConflictInstance(spec.mode, spec.k, 100.0, 1e-9))
            assert got < 1e-6

    def test_ra_exponential_k2_equalizes(self):
        strat = make_strategy(StrategySpec(RA, 2, 100.0, UNC))
        target = math.e / (math.e - 1.0)
        for y in (5.0, 50.0, 100.0):
            got = expected_cost(strat, ConflictInstance(RA, 2, 100.0, y))
            assert got == pytest.approx(target * y, rel=1e-9)

    def test_discrete_classic_equalizes_on_integer_days(self):
        B = 20
        strat = make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        flat = 1.0 / (1.0 - (1.0 - 1.0 / B) ** B)
        for d in (1, 7, 13, 20, 35):
            inst = ConflictInstance(RA, 2, float(B), float(d))
            assert expected_cost(strat, inst) == pytest.approx(
                flat * min(d, B), rel=1e-12
            )

    def test_spec_mismatch_rejected(self):
        strat = make_strategy(StrategySpec(RW, 2, 100.0, UNC))
        with pytest.raises(ValueError):
            expected_cost(strat, ConflictInstance(RA, 2, 100.0, 10.0))
        with pytest.raises(ValueError):
            expected_cost(strat, ConflictInstance(RW, 3, 100.0, 10.0))
        with pytest.raises(ValueError):
            expected_cost(strat, ConflictInstance(RW, 2, 50.0, 10.0))

    def test_batch_matches_pointwise_quadrature(self):
        specs = [
            StrategySpec(RW, 2, 100.0, UNC),
            StrategySpec(RW, 2, 100.0, CON, mu=10.0),
            StrategySpec(RW, 4, 100.0, CON, mu=1.0),
            StrategySpec(RA, 3, 100.0, UNC),
            StrategySpec(RA, 3, 100.0, CON, mu=1.0),
        ]
        for spec in specs:
            strat = make_strategy(spec)
            ys = np.array([0.3, 0.5, 0.9, 1.3]) * strat.support_max
            batch = batch_expected_costs(strat, ys)
            for y, b in zip(ys, batch):
                single = expected_cost(strat, ConflictInstance(spec.mode, spec.k, spec.B, y))
                assert b == pytest.approx(single, rel=1e-7)


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
        assert r1 == pytest.approx((3 * 3 - 2) / (2 * 3 - 2), rel=1e-6)

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
                cost = expected_cost(strat, ConflictInstance(mode, k, B, y))
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


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from([RW, RA]),
    k=st.integers(min_value=2, max_value=8),
    b=st.floats(min_value=0.5, max_value=500.0),
    y=st.floats(min_value=1e-3, max_value=800.0),
    x=st.floats(min_value=0.0, max_value=800.0),
)
def test_property_cost_decomposition(mode, k, b, y, x):
    inst = ConflictInstance(mode, k, b, y)
    total = conflict_cost(mode, k, b, x, y)
    delay, abort = (k * x, b) if mode is RW else ((k - 1) * x, (k - 1) * b)
    if y < x:
        assert total == (k - 1) * y
    else:  # (k-1)*(x+B) and (k-1)*x + (k-1)*B may differ in the last bit
        assert total == pytest.approx(delay + abort, rel=1e-15)
    assert total >= 0.0
    # the offline optimum lower-bounds every realizable conflict cost
    assert opt_cost(inst) <= total * (1.0 + 1e-12) + 1e-12
