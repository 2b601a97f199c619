import math
import tracemalloc

import numpy as np
import pytest

from graceperiod.adversary import _ROUND, remaining_time
from graceperiod.bench import (
    BenchConfig,
    CSV_HEADER,
    DISTRIBUTIONS,
    STRATEGIES,
    TrialRecord,
    WORST_CASE_DIST,
    _K,
    _length_model,
    _strategy_for,
    run_bench,
    rows_to_csv,
)
from graceperiod.costmodel import conflict_cost
from graceperiod.rng import stream


def small(**overrides):
    defaults = dict(B=2000.0, mu=500.0, trials=20_000, seed=7)
    defaults.update(overrides)
    return BenchConfig(**defaults)


def by_cell(rows):
    return {(r.distribution, r.strategy): r for r in rows}


def test_unknown_names_rejected():
    with pytest.raises(ValueError, match="distribution"):
        BenchConfig(B=10.0, mu=5.0, distributions=("zipf",))
    with pytest.raises(ValueError, match="strategy"):
        BenchConfig(B=10.0, mu=5.0, strategies=("NOPE",))
    with pytest.raises(ValueError, match="trials"):
        BenchConfig(B=10.0, mu=5.0, trials=0)


@pytest.mark.parametrize("dist, mu", [("geometric", 0.5), ("poisson", 1.0)])
def test_mean_a_distribution_cannot_take_is_named_at_config_time(dist, mu):
    # it used to be raised inside run_bench, after the earlier distributions
    # were scored, and named no field
    with pytest.raises(ValueError, match=rf"^config field 'mu': .* \(distribution {dist}\)$"):
        BenchConfig(B=10.0, mu=mu, distributions=("uniform", dist))


def test_deterministic_rows():
    a = run_bench(small())
    b = run_bench(small())
    assert a == b
    assert rows_to_csv(a) == rows_to_csv(b)


def test_csv_shape():
    text = rows_to_csv(run_bench(small(trials=100)))
    lines = text.split("\r\n")
    assert lines[0] == CSV_HEADER
    assert text.endswith("\r\n")
    assert len(lines) == 2 + len(DISTRIBUTIONS) * 6  # header + cells + trailing empty
    for line in lines[1:-1]:
        assert len(line.split(",")) == 7


def test_opt_cell_is_unit_ratio():
    rows = by_cell(run_bench(small(trials=5000)))
    for dist in DISTRIBUTIONS:
        assert rows[(dist, "OPT")].ratio == 1.0


def test_high_fixed_cost_matches_theory():
    rows = by_cell(run_bench(small()))
    for dist in DISTRIBUTIONS:
        assert 1.90 <= rows[(dist, "RRW")].ratio <= 2.05
        assert 1.50 <= rows[(dist, "RRA")].ratio <= 1.66
        assert rows[(dist, "RRW(mu)")].ratio < rows[(dist, "RRW")].ratio
        assert rows[(dist, "RRA(mu)")].ratio < rows[(dist, "RRA")].ratio


def test_low_fixed_cost_mean_gives_no_edge():
    rows = by_cell(run_bench(small(B=200.0)))
    for dist in DISTRIBUTIONS:
        assert rows[(dist, "RRW(mu)")].ratio == pytest.approx(
            rows[(dist, "RRW")].ratio, rel=0.05
        )
        assert rows[(dist, "RRA(mu)")].ratio == pytest.approx(
            rows[(dist, "RRA")].ratio, rel=0.05
        )


def test_worst_case_cell():
    rows = by_cell(run_bench(small(distributions=("worst_case_det",), trials=5000)))
    assert rows[("worst_case_det", "DET")].ratio == pytest.approx(3.0)
    assert rows[("worst_case_det", "RRW")].ratio == pytest.approx(2.0, abs=0.05)


def test_stderr_tracks_noise():
    rows = by_cell(run_bench(small(trials=40_000)))
    for dist in DISTRIBUTIONS:
        cell = rows[(dist, "RRW")]
        assert 0.0 < cell.stderr < 0.05
        assert abs(cell.ratio - 2.0) < 6.0 * cell.stderr + 1e-3


def reference_rows(config):
    """Every cell scored on whole trials-length arrays, as ``run_bench`` did
    before it drew and scored in blocks; kept here only as a reference."""
    rows = []
    n = config.trials
    for dist in config.distributions:
        ys = remaining_time(_length_model(dist, config), stream(config.seed, "bench", dist), n)
        for name in config.strategies:
            opts = np.minimum(ys, config.B)
            if name == "OPT":
                costs = opts.copy()
            else:
                strategy = _strategy_for(name, config)
                xs = strategy.sample_batch(stream(config.seed, "bench", dist, name), n)
                costs = conflict_cost(strategy.spec.mode, _K, config.B, xs, ys)
            avg_cost = float(np.mean(costs))
            avg_opt = float(np.mean(opts))
            ratio = avg_cost / avg_opt
            if n > 1:
                resid = costs - ratio * opts
                stderr = float(np.std(resid, ddof=1) / (avg_opt * math.sqrt(n)))
            else:
                stderr = 0.0
            rows.append(TrialRecord(dist, name, n, avg_cost, avg_opt, ratio, stderr))
    return rows


@pytest.mark.parametrize("trials", [1, _ROUND - 1, _ROUND + 1, 3 * _ROUND + 7])
def test_blocked_cells_equal_whole_array_reference(trials):
    # == on the float fields is bit-identity up to the sign of zero, and
    # the CSV text pins that too
    config = small(trials=trials, distributions=DISTRIBUTIONS + (WORST_CASE_DIST,))
    rows = run_bench(config)
    ref = reference_rows(config)
    assert [(r.distribution, r.strategy) for r in rows] == [
        (d, s) for d in config.distributions for s in STRATEGIES
    ]
    assert rows == ref
    assert rows_to_csv(rows) == rows_to_csv(ref)


def test_default_run_memory_stays_bounded():
    # trials-length arrays: the remaining times, their optimum and one cost
    # buffer (3 x 0.8 MB at the default 100k trials); drawing the lengths
    # briefly holds two more, the draw counters and their mix temporary, and
    # the interrupt points come a block at a time. Scoring the cells on whole
    # arrays peaked at 9.7 MB.
    config = BenchConfig(B=2000, mu=500)
    run_bench(small(trials=10))  # fill the calibration caches first
    tracemalloc.start()
    try:
        run_bench(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
