import math

import numpy as np
import pytest

from graceperiod import oracle
from graceperiod.costmodel import conflict_cost
from graceperiod.quadrature import _INITIAL_PANELS, _MAX_DEPTH, adaptive_simpson
from graceperiod.strategy import (
    ConflictMode,
    StrategySpec,
    Variant,
    make_strategy,
)


def of_x(f):
    """The integrand ``f(x, which)`` of a function of the nodes alone."""
    return lambda x, which, /: f(x)


def reference_adaptive_simpson(f, a, b, rel_tol=1e-9, abs_tol=1e-12):
    """The depth-first recursion, one scalar node at a time, of one function
    ``f(x)``.

    ``adaptive_simpson(of_x(f), a, b)`` must return exactly this float.
    """
    if a == b:
        return 0.0
    if a > b:
        return -reference_adaptive_simpson(f, b, a, rel_tol, abs_tol)
    edges = [a + (b - a) * i / _INITIAL_PANELS for i in range(_INITIAL_PANELS + 1)]
    edges[-1] = b
    total = 0.0
    panel_abs = abs_tol / _INITIAL_PANELS
    for lo, hi in zip(edges, edges[1:]):
        flo, fhi = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
        total += _recurse(f, lo, hi, flo, fm, fhi, whole, rel_tol, panel_abs, _MAX_DEPTH)
    return total


def _recurse(f, a, b, fa, fm, fb, whole, rel_tol, abs_tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * max(abs_tol, rel_tol * abs(left + right)):
        return left + right + delta / 15.0
    return _recurse(
        f, a, m, fa, flm, fm, left, rel_tol, 0.5 * abs_tol, depth - 1
    ) + _recurse(f, m, b, fm, frm, fb, right, rel_tol, 0.5 * abs_tol, depth - 1)


def assert_same_bits(f, a, b):
    assert adaptive_simpson(of_x(f), a, b) == reference_adaptive_simpson(f, a, b)


def counting_nodes(f, a, b):
    """``adaptive_simpson`` of ``f(x)`` over ``[a, b]`` and the number of nodes
    it passed to ``f``."""
    lengths = []
    return adaptive_simpson(lambda x, _: lengths.append(len(x)) or f(x), a, b), sum(lengths)


def at_index(f, i):
    """``f(x, which)`` as a scalar function of ``x`` on the integral of flat index ``i``."""
    return lambda x: f(np.array([x]), np.array([i]))[0]


def recorded_calls(monkeypatch, run):
    """``(f, a, b, result)`` of each ``oracle.adaptive_simpson`` call ``run()`` makes."""
    calls = []

    def recording(f, a, b, *args):
        calls.append((f, a, b, adaptive_simpson(f, a, b, *args)))
        return calls[-1][-1]

    monkeypatch.setattr(oracle, "adaptive_simpson", recording)
    run()
    return calls


def assert_each_equals_reference(calls, expected):
    """Each integral of the recorded calls is the recursion's float on its
    interval, of the function its integrand is at that integral's flat index."""
    integrals = [
        (at_index(f, i), lo, hi, value)
        for f, a, b, values in calls
        for i, (lo, hi, value) in enumerate(zip(*map(np.ravel, np.broadcast_arrays(a, b, values))))
    ]
    assert len(integrals) == expected
    for f, lo, hi, value in integrals:
        assert value == reference_adaptive_simpson(f, float(lo), float(hi))


def test_cubics_are_exact():
    assert adaptive_simpson(lambda x, _: x ** 3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(
        4.0 - 4.0 + 2.0, abs=1e-14
    )


def test_known_smooth_integrals():
    assert adaptive_simpson(of_x(np.sin), 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda x, _: np.exp(-x), 0.0, 50.0) == pytest.approx(
        1.0, abs=1e-9
    )
    assert adaptive_simpson(lambda x, _: 1.0 / (1.0 + x * x), 0.0, 1.0) == pytest.approx(
        math.pi / 4.0, abs=1e-12
    )


def test_orientation_and_degenerate_interval():
    assert adaptive_simpson(lambda x, _: x, 3.0, 3.0) == 0.0
    forward = adaptive_simpson(lambda x, _: x * x, 0.0, 1.0)
    assert adaptive_simpson(lambda x, _: x * x, 1.0, 0.0) == pytest.approx(-forward)


def test_peaked_integrand_subdivides():
    # narrow gaussian bump inside a wide interval
    val = adaptive_simpson(
        lambda x, _: np.exp(-((x - 0.7) ** 2) / 5e-3), 0.0, 10.0
    )
    exact = math.sqrt(5e-3 * math.pi)
    assert val == pytest.approx(exact, rel=1e-8)


def test_non_convergent_integrand_raises_instead_of_growing():
    # every interval splits at every level, so the active set doubles each time
    with pytest.raises(RuntimeError):
        adaptive_simpson(lambda x, _: np.full_like(x, np.nan), 0.0, 1.0)


class TestSameBitsAsRecursion:
    """The level-synchronous integrator returns the recursion's float exactly."""

    def test_normalization_integrands(self, monkeypatch):
        def suite():
            oracle._normalization_checks()
            oracle._negative_control_checks()

        calls = recorded_calls(monkeypatch, suite)
        # one call over the 45 distinct densities of the 96 closed-form cells,
        # then the malformed control; the discrete cells sum exactly
        assert len(calls) == 2
        (_, a, b, values), (_, _, control, _) = calls
        assert a == 0.0 and b.shape == values.shape == (45,) and control == 10.0
        assert_each_equals_reference(calls, expected=46)

    def test_quadrature_check_integrals(self, monkeypatch):
        calls = recorded_calls(monkeypatch, oracle._quadrature_checks)
        # a cdf and a moment call, each over the 6 cases' 5 fractions
        assert len(calls) == 2
        assert_each_equals_reference(calls, expected=60)

    def test_adversary_integrals(self, monkeypatch):
        def probes():
            for mode in ConflictMode:
                for k in (2, 10):
                    oracle._adversary_costs(mode, k, 100.0, np.linspace(0.0, 100.0 / (k - 1), 8))

        calls = recorded_calls(monkeypatch, probes)
        # one call per adversary, over the 7 steps between its 8 grace periods
        assert len(calls) == 4
        assert_each_equals_reference(calls, expected=28)

    @pytest.mark.parametrize("mode", list(ConflictMode))
    def test_expected_cost_head_integrand(self, mode):
        for k in (2, 3, 5):
            for variant, mu in ((Variant.RANDOMIZED_UNCONSTRAINED, None),
                                (Variant.RANDOMIZED_CONSTRAINED, 10.0)):
                strat = make_strategy(StrategySpec(mode, k, 100.0, variant, mu=mu))
                for y in (0.5, 37.0, 2.0 * strat.support_max):
                    cut = min(y, strat.support_max)
                    assert_same_bits(
                        lambda x: conflict_cost(mode, k, 100.0, x, y) * strat.pdf(x),
                        0.0, cut,
                    )

    def test_negative_control_log_singularity(self):
        B = 10.0
        c = B * (2.0 * math.log(2.0) - 1.0)
        assert_same_bits(lambda x: np.log((B + x) / np.maximum(x, 1e-12)) / c, 0.0, B)

    def test_jump_reaching_max_depth(self):
        calls = []

        def jump(x):
            calls.append(x)
            return np.where(x < 0.003, 1.0, 2.0)

        adaptive_simpson(of_x(jump), 0.0, 10.0)
        # the panels with the first level's nodes, then every level down to depth 0
        assert len(calls) == _MAX_DEPTH + 1
        assert_same_bits(jump, 0.0, 10.0)

    def test_reversed_and_degenerate_intervals(self):
        assert_same_bits(np.sin, math.pi, 0.0)
        assert_same_bits(lambda x: np.exp(-x), 50.0, 0.0)
        assert_same_bits(np.sin, 1.5, 1.5)

    def test_batch_equals_each_interval_alone(self):
        def peak(x):
            return np.exp(-((x - 0.7) ** 2) / 5e-3)

        # ordinary, reversed, degenerate, peaked and tiny intervals in one pass
        a = np.array([0.0, math.pi, 1.5, 0.0, 10.0, 3.0, -2.0, 0.7, 5.0])
        b = np.array([1.0, 0.0, 1.5, 10.0, 0.0, 3.0, 2.0, 0.7 + 1e-9, 50.0])
        values = adaptive_simpson(of_x(peak), a, b)
        assert values.shape == a.shape
        for lo, hi, value in zip(a.tolist(), b.tolist(), values):
            assert value == reference_adaptive_simpson(peak, lo, hi)
        assert values[2] == values[5] == 0.0 and values[1] < 0.0

    def test_batch_broadcasts_and_skips_empty_intervals(self):
        values, nodes = counting_nodes(np.sin, 0.0, np.array([[0.0, 1.0], [math.pi, 0.0]]))
        assert values.shape == (2, 2)
        assert values[0, 0] == values[1, 1] == 0.0
        assert values[0, 1] == reference_adaptive_simpson(np.sin, 0.0, 1.0)
        assert values[1, 0] == reference_adaptive_simpson(np.sin, 0.0, math.pi)
        # the empty intervals add no nodes, and a batch of them calls f not at all
        alone = [counting_nodes(np.sin, 0.0, hi)[1] for hi in (1.0, math.pi)]
        assert nodes == sum(alone)
        assert adaptive_simpson(lambda x, _: 1 / 0, np.ones(3), 1.0).tolist() == [0.0] * 3

    def test_scalars_give_a_float(self):
        sin = of_x(np.sin)
        assert type(adaptive_simpson(sin, 0.0, 1.0)) is float
        assert type(adaptive_simpson(sin, 1, 1)) is float
        assert type(adaptive_simpson(sin, np.float32(1.0), np.asarray(0.0))) is float

    def test_nan_in_a_batch_raises(self):
        # one of the intervals never converges; the bound scales with the batch
        with pytest.raises(RuntimeError):
            adaptive_simpson(
                lambda x, _: np.where(x < 1.0, np.nan, x),
                np.array([0.0, 1.0]), np.array([1.0, 2.0]),
            )

    def test_smooth_integrands(self):
        assert_same_bits(np.sin, 0.0, math.pi)
        assert_same_bits(lambda x: np.exp(-((x - 0.7) ** 2) / 5e-3), 0.0, 10.0)


    def test_integrand_switches_on_which(self):
        # a different function over each interval, in one call; which[j] is
        # the flat index of node j's integral in the broadcast bounds, and the
        # empty interval at flat index 1 sends f no node
        fs = [np.sin, None, lambda x: np.exp(-x), lambda x: np.exp(-((x - 0.7) ** 2) / 5e-3)]
        b = np.array([[math.pi, 0.0], [50.0, 10.0]])
        seen = set()

        def switch(x, which, /):  # positional only, as a counting wrapper passes them
            seen.update(which.tolist())
            out = np.empty_like(x)
            for i, f in enumerate(fs):
                if f is not None:
                    out[which == i] = f(x[which == i])
            return out

        values = adaptive_simpson(switch, 0.0, b)
        assert values.shape == b.shape and values[0, 1] == 0.0
        assert seen == {0, 2, 3}
        for f, hi, value in zip(fs, b.ravel(), values.ravel()):
            if f is not None:
                assert value == reference_adaptive_simpson(f, 0.0, float(hi))
