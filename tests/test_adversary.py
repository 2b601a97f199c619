import math
import time
import tracemalloc

import numpy as np
import pytest

from graceperiod import adversary
from graceperiod.adversary import (
    POISSON_MAX_MEAN,
    AdversaryModel,
    remaining_time,
    sample_length,
    worst_case_for_det,
)
from graceperiod.costmodel import ConflictInstance, conflict_cost, expected_cost
from graceperiod.rng import stream
from graceperiod.strategy import ConflictMode, StrategySpec, Variant, make_strategy

N = 1_000_000


@pytest.mark.parametrize("kind", ["geometric", "normal_truncated", "uniform",
                                  "exponential", "poisson"])
def test_calibrated_means_and_positivity(kind):
    model = AdversaryModel(kind, 500.0)
    xs = sample_length(model, stream(11, kind), N)
    assert np.all(xs > 0.0)
    # configured mean must be matched well inside the 2% budget
    assert abs(float(xs.mean()) - 500.0) / 500.0 < 0.02


def test_exponential_clt_bound():
    model = AdversaryModel("exponential", 500.0)
    xs = sample_length(model, stream(12, "exp"), N)
    assert abs(float(xs.mean()) - 500.0) < 3.0


def test_uniform_support():
    model = AdversaryModel("uniform", 500.0)
    xs = sample_length(model, stream(13, "uni"), 100_000)
    assert np.all(xs > 0.0) and np.all(xs <= 1000.0)


def test_small_mean_calibration():
    # truncation bias would be large here without recalibration
    model = AdversaryModel("normal_truncated", 2.0, sigma=2.0)
    xs = sample_length(model, stream(14, "nt"), N)
    assert abs(float(xs.mean()) - 2.0) / 2.0 < 0.02
    model = AdversaryModel("poisson", 1.5)
    xs = sample_length(model, stream(15, "pz"), 200_000)
    assert np.all(xs >= 1.0)
    assert abs(float(xs.mean()) - 1.5) / 1.5 < 0.02


def test_discrete_kinds_are_integer_valued():
    for kind in ("geometric", "poisson"):
        xs = sample_length(AdversaryModel(kind, 40.0), stream(16, kind), 10_000)
        assert np.all(xs == np.round(xs))
        ys = remaining_time(AdversaryModel(kind, 40.0), stream(17, kind), 10_000)
        assert np.all(ys == np.round(ys)) and np.all(ys >= 1.0)


def test_point_mass():
    model = AdversaryModel("point_mass", 42.0, value=42.0)
    assert sample_length(model, stream(1)) == 42.0
    ys = remaining_time(model, stream(1), 100)
    assert np.all(ys == 42.0)


def test_remaining_time_halves_the_mean():
    model = AdversaryModel("exponential", 500.0)
    ys = remaining_time(model, stream(18, "rem"), N)
    assert np.all(ys > 0.0)
    assert abs(float(ys.mean()) - 250.0) < 3.0


def test_reproducible_streams():
    model = AdversaryModel("poisson", 30.0)
    a = sample_length(model, stream(19, "rep"), 5000)
    b = sample_length(model, stream(19, "rep"), 5000)
    assert np.array_equal(a, b)


def test_extreme_sigma_rejected():
    with pytest.raises(ValueError):
        sample_length(AdversaryModel("normal_truncated", 1.0, sigma=100.0), stream(1), 10)


def test_validation():
    with pytest.raises(ValueError):
        AdversaryModel("nope", 10.0)
    with pytest.raises(ValueError):
        AdversaryModel("exponential", 0.0)
    with pytest.raises(ValueError):
        AdversaryModel("geometric", 0.5)
    with pytest.raises(ValueError):
        AdversaryModel("poisson", 1.0)
    with pytest.raises(ValueError):
        AdversaryModel("point_mass", 0.0, value=0.0)


def zero_truncated_pmf(lam, n):
    """Exact ``P(N = n | N >= 1)`` for ``N ~ Poisson(lam)``, from lgamma."""
    return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1.0)) / -math.expm1(-lam)


def chi2_upper(dof, z=3.719):
    # Wilson-Hilferty quantile of chi-square; z = 3.719 is the 1e-4 upper tail
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


class TestZeroTruncatedPoisson:
    def test_one_uniform_per_length(self):
        model = AdversaryModel("poisson", 500.0)
        s, ref = stream(3, "pz"), stream(3, "pz")
        sample_length(model, s, 1000)
        ref.u64_batch(1000)
        assert s.u64() == ref.u64()
        for _ in range(5):
            sample_length(model, s)
        ref.u64_batch(5)
        assert s.u64() == ref.u64()

    @pytest.mark.parametrize("mean", [1.5, 30.0, 500.0])
    def test_chi_square_against_exact_pmf(self, mean):
        n = 200_000
        lam = adversary._solve_zero_truncated_poisson_rate(mean)
        xs = sample_length(AdversaryModel("poisson", mean), stream(21, "chi2"), n)
        top = int(lam + 20.0 * math.sqrt(lam) + 40.0)
        assert xs.max() < top
        observed = np.bincount(xs.astype(int), minlength=top + 1)[1:]
        expected = n * np.array([zero_truncated_pmf(lam, j) for j in range(1, top + 1)])
        # pool bins from both ends until each holds an expected count >= 20
        keep = np.flatnonzero(expected >= 20.0)
        first, last = keep[0], keep[-1]
        obs = np.concatenate([[observed[:first + 1].sum()], observed[first + 1:last],
                              [observed[last:].sum()]])
        exp = np.concatenate([[expected[:first + 1].sum()], expected[first + 1:last],
                              [n - expected[:last].sum()]])
        stat = float(np.sum((obs - exp) ** 2 / exp))
        assert stat < chi2_upper(len(obs) - 1)

    @pytest.mark.parametrize("mean", [1.0001, 1.5, 30.0, 500.0, 1e6])
    def test_dropped_tail_mass(self, mean):
        lam = adversary._solve_zero_truncated_poisson_rate(mean)
        lo, cdf = adversary._zero_truncated_poisson_table(mean)
        hi = lo + len(cdf) - 1
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        dropped = 0.0
        for start, step in ((lo - 1, -1), (hi + 1, 1)):
            j = start
            while j >= 1:
                term = zero_truncated_pmf(lam, j)
                dropped += term
                if term < 1e-40:
                    break
                j += step
        assert dropped < 1e-15

    def test_large_mean_builds_in_bounded_time_and_memory(self):
        adversary._zero_truncated_poisson_table.cache_clear()
        tracemalloc.start()
        t0 = time.perf_counter()
        lo, cdf = adversary._zero_truncated_poisson_table(1e6)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 1.0
        assert len(cdf) < 20 * math.sqrt(1e6)  # O(sqrt(mean)) entries
        assert peak < 4 * cdf.nbytes
        xs = sample_length(AdversaryModel("poisson", 1e6), stream(22, "big"), 10_000)
        assert np.all((xs >= lo) & (xs <= lo + len(cdf) - 1))
        assert abs(float(xs.mean()) - 1e6) < 5.0 * 1e3 / math.sqrt(10_000)

    def test_mean_above_table_cap_rejected(self):
        AdversaryModel("poisson", POISSON_MAX_MEAN)
        with pytest.raises(ValueError, match="poisson"):
            AdversaryModel("poisson", 2.0 * POISSON_MAX_MEAN)


def test_calibration_solved_once_per_model(monkeypatch):
    cached = (adversary._solve_truncated_normal_loc, adversary._zero_truncated_poisson_table)
    for solver in cached:
        solver.cache_clear()
    rate_solves = []
    solve_rate = adversary._solve_zero_truncated_poisson_rate
    monkeypatch.setattr(adversary, "_solve_zero_truncated_poisson_rate",
                        lambda mean: rate_solves.append(mean) or solve_rate(mean))
    s = stream(23, "memo")
    for _ in range(500):  # one scalar draw per transaction, as build_schedule does
        sample_length(AdversaryModel("normal_truncated", 37.0), s)
        sample_length(AdversaryModel("poisson", 37.0), s)
    assert [solver.cache_info().misses for solver in cached] == [1, 1]
    assert [solver.cache_info().hits for solver in cached] == [499, 499]
    assert rate_solves == [37.0]


class TestWorstCaseForDet:
    def test_point_mass_at_threshold(self):
        model = worst_case_for_det(2, 100.0)
        assert model.kind == "point_mass"
        assert model.value == 100.0
        assert worst_case_for_det(5, 100.0).value == 25.0

    def test_det_cost_under_it(self):
        # tie rule fires the abort: cost 300 against optimum 100
        y = worst_case_for_det(2, 100.0).value
        assert conflict_cost(ConflictMode.REQUESTOR_WINS, 2, 100.0, 100.0, y) == 300.0

    def test_rw_uniform_cost_under_it(self):
        strat = make_strategy(
            StrategySpec(ConflictMode.REQUESTOR_WINS, 2, 100.0,
                         Variant.RANDOMIZED_UNCONSTRAINED)
        )
        inst = ConflictInstance(ConflictMode.REQUESTOR_WINS, 2, 100.0, 100.0)
        assert expected_cost(strat, inst) == pytest.approx(200.0, rel=1e-9)
