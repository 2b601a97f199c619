import math
import time
import tracemalloc

import numpy as np
import pytest

from graceperiod import adversary
from graceperiod.adversary import (
    KINDS,
    POISSON_MAX_MEAN,
    AdversaryModel,
    remaining_time,
    sample_length,
    worst_case_for_det,
)
from graceperiod.costmodel import conflict_cost, expected_cost
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
    assert np.array_equal(sample_length(model, stream(1), 3), [42.0] * 3)
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


BLOCK_MODELS = [
    AdversaryModel(kind, 40.0, value=40.0 if kind == "point_mass" else None)
    for kind in KINDS
] + [AdversaryModel("normal_truncated", 2.0, sigma=2.0)]  # about a third rejected


@pytest.mark.parametrize("model", BLOCK_MODELS, ids=lambda m: f"{m.kind}-{m.mean:g}")
def test_draws_do_not_depend_on_the_block_split(model):
    whole, blocks, single = stream(24, "split"), stream(24, "split"), stream(24, "split")
    xs = sample_length(model, whole, 1000)
    by_block = np.concatenate([sample_length(model, blocks, n) for n in (1, 10, 333, 656)])
    one_by_one = np.concatenate([sample_length(model, single, 1) for _ in range(1000)])
    assert np.array_equal(xs, by_block) and np.array_equal(xs, one_by_one)
    assert whole.u64() == blocks.u64() == single.u64()  # the streams stop at the same draw


def test_round_cap_does_not_move_normal_draws(monkeypatch):
    model = BLOCK_MODELS[-1]
    s, capped = stream(26, "cap"), stream(26, "cap")
    xs = sample_length(model, s, 1000)
    monkeypatch.setattr(adversary, "_ROUND", 7)
    assert np.array_equal(xs, sample_length(model, capped, 1000))
    assert s.u64() == capped.u64()


@pytest.mark.parametrize("model", BLOCK_MODELS, ids=lambda m: m.kind)
def test_round_cap_does_not_move_remaining_times(model, monkeypatch):
    # the reference draws every interrupt point in one batch after the lengths
    ref, capped = stream(27, "rem"), stream(27, "rem")
    r = sample_length(model, ref, 1000)
    if not model.is_point_mass:
        u = ref.uniform_batch(1000)
        r = r - np.floor(u * r) if model.kind in adversary.DISCRETE_KINDS else r * (1.0 - u)
    monkeypatch.setattr(adversary, "_ROUND", 7)
    assert np.array_equal(remaining_time(model, capped, 1000), r)
    assert ref.u64() == capped.u64()


def test_zero_draws_leave_the_stream():
    for model in BLOCK_MODELS:
        s = stream(25, "empty")
        assert sample_length(model, s, 0).shape == remaining_time(model, s, 0).shape == (0,)
        assert s.u64() == stream(25, "empty").u64()


BUFFER_MODELS = BLOCK_MODELS + [AdversaryModel("normal_truncated", 1.0, sigma=0.9)]


def whole_array_lengths(model, s, n):
    """One batch of ``n`` uniforms, transformed on the whole array, for the
    kinds that take one uniform a length."""
    u = s.uniform_open_batch(n)
    if model.kind == "exponential":
        return np.log(u) * -model.mean
    if model.kind == "uniform":
        return u * (2.0 * model.mean)
    if model.kind == "geometric":
        return np.floor(np.log(u) / math.log1p(-1.0 / model.mean)) + 1.0
    lo, cdf, _ = adversary._zero_truncated_poisson_table(model.mean)
    return (np.searchsorted(cdf, u, side="right") + lo).astype(float)


@pytest.mark.parametrize("draw", [sample_length, remaining_time], ids=lambda f: f.__name__)
@pytest.mark.parametrize("model", BUFFER_MODELS, ids=lambda m: f"{m.kind}-{m.mean:g}")
def test_draws_into_a_callers_buffer(model, draw):
    n = 3 * adversary._ROUND + 5
    fresh, given = stream(28, "buffer"), stream(28, "buffer")
    expected = draw(model, fresh, n)
    buf = np.full(n, np.nan)
    assert draw(model, given, n, out=buf) is buf
    assert np.array_equal(buf, expected)
    assert fresh.u64() == given.u64()
    if draw is sample_length and model.kind in ("exponential", "uniform", "geometric", "poisson"):
        assert np.array_equal(buf, whole_array_lengths(model, stream(28, "buffer"), n))


def test_buffer_of_the_wrong_shape_rejected():
    model = AdversaryModel("exponential", 40.0)
    for buf in (np.empty(9), np.empty((2, 5)), np.empty(10, dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            remaining_time(model, stream(1), 10, out=buf)


def test_extreme_sigma_rejected():
    with pytest.raises(ValueError):
        sample_length(AdversaryModel("normal_truncated", 1.0, sigma=100.0), stream(1), 10)


@pytest.mark.parametrize("mean", [1e155, 1e200, 1e300])
def test_huge_mean_calibrates(mean):
    # the bracket squared sigma, so from a mean of about 5e154 it overflowed to
    # -inf and the calibration falsely left "under 1% of the mass above zero"
    loc = adversary._solve_truncated_normal_loc(mean, mean / 4.0)
    assert loc == pytest.approx(mean, rel=1e-4)


@pytest.mark.parametrize("mean, sigma", [(1.0, 100.0), (20.0, 1e200)])
def test_mass_below_zero_still_rejected(mean, sigma):
    with pytest.raises(ValueError, match="under 1% of the mass above zero"):
        adversary._solve_truncated_normal_loc(mean, sigma)


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
            sample_length(model, s, 1)
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
        lo, cdf, _ = adversary._zero_truncated_poisson_table(mean)
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

    @pytest.mark.parametrize("mean", [1.0001, 1.5, 30.0, 500.0, 1e6])
    def test_guide_lookup_is_searchsorted(self, mean):
        _, cdf, guide = adversary._zero_truncated_poisson_table(mean)
        points = np.concatenate([cdf, np.arange(guide.size) / guide.size])  # and bucket edges
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], points, np.nextafter(points, 0.0),
            np.nextafter(points, 1.0), stream(29, "guide").uniform_open_batch(100_000),
        ])
        u = u[u < 1.0]
        assert np.array_equal(adversary._invert_table(cdf, guide, u),
                              np.searchsorted(cdf, u, side="right"))

    def test_guide_size(self):
        for mean, size in ((500.0, 1 << 12), (1e6, 1 << 14), (POISSON_MAX_MEAN, 1 << 16)):
            _, cdf, guide = adversary._zero_truncated_poisson_table(mean)
            assert guide.size == size, (mean, cdf.size)

    def test_large_mean_builds_in_bounded_time_and_memory(self):
        adversary._zero_truncated_poisson_table.cache_clear()
        tracemalloc.start()
        t0 = time.perf_counter()
        lo, cdf, _ = adversary._zero_truncated_poisson_table(1e6)
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
    for _ in range(500):  # one length a call: the calibration is not redone
        sample_length(AdversaryModel("normal_truncated", 37.0), s, 1)
        sample_length(AdversaryModel("poisson", 37.0), s, 1)
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
        assert expected_cost(strat, 100.0) == pytest.approx(200.0, rel=1e-9)
