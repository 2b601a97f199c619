"""Acceptance gate: the package's headline guarantees, checked end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion item.

Criterion 1's day-granular classic strategy (Karlin et al. 1994) is checked
in its own test with two assertions.  At B = 100 its worst case ratio must
equal the day-granular optimum 1/(1 - (1 - 1/B)**B) = 1.5773675... to within
1e-12, and lie strictly below e/(e-1).  At B = 1000 and B = 10000 it must lie
within 1e-3 of the continuous limit e/(e-1) = 1.5819767...  B = 100 is
compared with the granular value and not with the limit because the two
differ there by ~e/(2B(e-1)**2) = 4.6e-3, more than the 1e-3 tolerance, for
a strategy that is exactly right.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from graceperiod import bench, simulator
from graceperiod.cli import main
from graceperiod.oracle import (
    lagrange_identity_check,
    verify_density,
    verify_pdf,
    worst_case_ratio,
)
from graceperiod.simulator import (
    build_schedule,
    config_from_dict,
    progress_check,
    run_offline_baseline,
    throughput_campaign,
)
from graceperiod.strategy import (
    ConflictMode,
    StrategySpec,
    Variant,
    competitive_ratio,
    lagrange_corner,
    make_strategy,
    threshold_condition,
)

RW = ConflictMode.REQUESTOR_WINS
RA = ConflictMode.REQUESTOR_ABORTS
UNC = Variant.RANDOMIZED_UNCONSTRAINED
CON = Variant.RANDOMIZED_CONSTRAINED
LN4M1 = 2.0 * math.log(2.0) - 1.0
E = math.e


class Gate:
    def __init__(self, title):
        self.title = title
        self.failures = []

    def check(self, name, ok, detail=""):
        print(f"[{'PASS' if ok else 'FAIL'}] {self.title} :: {name}"
              + (f"  ({detail})" if detail else ""))
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def finish(self):
        assert not self.failures, "\n".join(self.failures)


def _mu_at_half_threshold(mode, k, B):
    lo, hi = 0.0, 20.0 * B * k
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if threshold_condition(StrategySpec(mode, k, B, CON, mu=mid)):
            lo = mid
        else:
            hi = mid
    return 0.25 * (lo + hi)  # half of the largest admissible mean


def test_criterion_1_closed_form_worst_case_ratios():
    gate = Gate("criterion 1")
    t0 = time.time()
    for B in (10.0, 200.0, 2000.0):
        ratio, _ = worst_case_ratio(make_strategy(StrategySpec(RW, 2, B, UNC)))
        gate.check(f"rw uniform k=2 B={B:g}", abs(ratio - 2.0) < 1e-4, f"{ratio:.6f}")
    for k in (2, 3, 5, 10):
        ratio, _ = worst_case_ratio(
            make_strategy(StrategySpec(RW, k, 100.0, Variant.DETERMINISTIC))
        )
        want = 2.0 + 1.0 / (k - 1)
        gate.check(f"deterministic k={k}", abs(ratio - want) < 1e-4,
                   f"{ratio:.6f} vs {want:.6f}")
    for k in (3, 5):
        ratio, _ = worst_case_ratio(make_strategy(StrategySpec(RA, k, 100.0, UNC)))
        e1 = math.exp(1.0 / (k - 1))
        want = e1 / (e1 - 1.0)
        gate.check(f"ra general k={k}", abs(ratio - want) < 1e-4,
                   f"{ratio:.6f} vs {want:.6f}")
    elapsed = time.time() - t0
    gate.check("runtime under 1 s", elapsed < 1.0, f"{elapsed:.2f}s")
    gate.finish()


def test_criterion_1_discrete_classic_within_1e3_of_limit():
    # The day-granular classic is the ski-rental optimum at every B: its worst
    # case is exactly 1/(1-(1-1/B)^B), asserted at B = 100 to 1e-12.  That
    # value tends to e/(e-1) only as B grows, from below, with gap
    # ~e/(2B(e-1)^2) (4.6e-3 at B = 100), so the 1e-3 check against the
    # limit is made at B = 1000 and B = 10000, where it can hold.
    limit = E / (E - 1.0)
    strat = make_strategy(StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC))
    ratio, _ = worst_case_ratio(strat)
    granular = 1.0 / (1.0 - (1.0 - 0.01) ** 100)
    print(f"[INFO] criterion 1 :: discrete classic B=100 measured {ratio:.7f}; "
          f"day-granular value {granular:.7f}; continuous limit {limit:.7f}")
    assert ratio == pytest.approx(granular, rel=0.0, abs=1e-12)
    assert ratio < limit

    leading = E / (2.0 * (E - 1.0) ** 2)
    gaps = {100: limit - ratio}
    for B in (1000, 10000):
        r, _ = worst_case_ratio(
            make_strategy(StrategySpec(RA, 2, float(B), Variant.DISCRETE_CLASSIC))
        )
        assert abs(r - limit) < 1e-3, f"B={B}: {r:.7f} vs e/(e-1) = {limit:.7f}"
        gaps[B] = limit - r
    assert gaps[100] > gaps[1000] > gaps[10000] > 0.0, gaps
    for B, gap in gaps.items():
        assert B * gap == pytest.approx(leading, rel=0.01), (
            f"B={B}: B*gap {B * gap:.6f} vs e/(2(e-1)^2) = {leading:.6f}"
        )


def test_criterion_2_lagrange_identity_suite():
    gate = Gate("criterion 2")
    t0 = time.time()
    for mode, tag in ((RW, "rw"), (RA, "ra")):
        for k in (2, 3, 5):
            for B in (10.0, 100.0):
                mu = _mu_at_half_threshold(mode, k, B)
                spec = StrategySpec(mode, k, B, CON, mu=mu)
                strat = make_strategy(spec)
                lam1, lam2 = lagrange_corner(mode, k, B, constrained=True)
                res = lagrange_identity_check(strat, lam1, lam2)
                gate.check(
                    f"{tag} k={k} B={B:g} identity residual", res.passed,
                    f"max {res.max_residual:.2e}, point-mass {res.point_mass_residual:.2e}",
                )
                got = competitive_ratio(spec).theoretical_ratio
                gate.check(
                    f"{tag} k={k} B={B:g} ratio is the corner objective",
                    got == lam1 + lam2 * mu,
                    f"{got!r}",
                )
                if mode is RW and k == 2:
                    want = 1.0 + mu / (2.0 * B * LN4M1)
                elif mode is RA and k == 2:
                    want = 1.0 + mu / (2.0 * B * (E - 2.0))
                elif mode is RW:
                    q = (k / (k - 1.0)) ** (k - 1)
                    want = 1.0 + mu * (k - 2) / (2.0 * B * (q - 2.0))
                else:
                    g = (k - 1) * math.expm1(1.0 / (k - 1)) - 1.0
                    want = 1.0 + mu * (k - 1) / (2.0 * B * g)
                gate.check(
                    f"{tag} k={k} B={B:g} closed-form objective", got == pytest.approx(want, rel=5e-16),
                    f"{got!r} vs {want!r}",
                )
    elapsed = time.time() - t0
    gate.check("runtime under 5 s", elapsed < 5.0, f"{elapsed:.2f}s")
    gate.finish()


def test_criterion_3_normalization_suite():
    gate = Gate("criterion 3")
    worst_err, worst_min = 0.0, 0.0
    n_cells = 0
    for k in (2, 3, 5, 10):
        for B in (10.0, 200.0, 2000.0):
            specs = [
                StrategySpec(RW, k, B, UNC),
                StrategySpec(RA, k, B, UNC),
            ]
            for frac in (0.1, 0.5, 2.0):
                specs.append(StrategySpec(RW, k, B, CON, mu=frac * B))
                specs.append(StrategySpec(RA, k, B, CON, mu=frac * B))
            for spec in specs:
                res = verify_pdf(make_strategy(spec))
                n_cells += 1
                worst_err = max(worst_err, res.normalization_error)
                worst_min = min(worst_min, res.min_density)
                if not res.passed:
                    gate.check(f"cell {spec}", False, f"err {res.normalization_error:.2e}")
    res = verify_pdf(make_strategy(StrategySpec(RA, 2, 100.0, Variant.DISCRETE_CLASSIC)))
    n_cells += 1
    worst_err = max(worst_err, res.normalization_error)
    gate.check(f"all {n_cells} grid densities normalize", worst_err < 1e-6,
               f"worst |integral - 1| = {worst_err:.2e}")
    gate.check("densities never dip below -1e-12", worst_min > -1e-12,
               f"worst min = {worst_min:.2e}")

    B = 10.0
    res = verify_density(lambda x: np.log((B + x) / np.maximum(x, 1e-12)) / (B * LN4M1), B)
    gate.check("injected wrong-form density is detected", not res.passed,
               f"err {res.normalization_error:.2e}")
    gate.finish()


@pytest.fixture(scope="module")
def high_cost_bench():
    return bench.run_bench(bench.BenchConfig(B=2000.0, mu=500.0, trials=100_000, seed=11))


def test_criterion_4_synthetic_reproduction(high_cost_bench):
    gate = Gate("criterion 4")
    t0 = time.time()
    cells = {(r.distribution, r.strategy): r.ratio for r in high_cost_bench}
    for dist in bench.DISTRIBUTIONS:
        rrw, rra = cells[(dist, "RRW")], cells[(dist, "RRA")]
        gate.check(f"B=2000 {dist}: RRW in [1.90, 2.05]", 1.90 <= rrw <= 2.05, f"{rrw:.4f}")
        gate.check(f"B=2000 {dist}: RRA in [1.50, 1.66]", 1.50 <= rra <= 1.66, f"{rra:.4f}")
        gate.check(
            f"B=2000 {dist}: mean-aware beats plain",
            cells[(dist, "RRW(mu)")] < rrw and cells[(dist, "RRA(mu)")] < rra,
            f"RRW(mu) {cells[(dist, 'RRW(mu)')]:.4f}, RRA(mu) {cells[(dist, 'RRA(mu)')]:.4f}",
        )

    low = bench.run_bench(bench.BenchConfig(B=200.0, mu=500.0, trials=100_000, seed=11))
    low_cells = {(r.distribution, r.strategy): r.ratio for r in low}
    for dist in bench.DISTRIBUTIONS:
        close_rw = abs(low_cells[(dist, "RRW(mu)")] - low_cells[(dist, "RRW")]) \
            <= 0.05 * low_cells[(dist, "RRW")]
        close_ra = abs(low_cells[(dist, "RRA(mu)")] - low_cells[(dist, "RRA")]) \
            <= 0.05 * low_cells[(dist, "RRA")]
        gate.check(f"B=200 {dist}: mean-aware ~ plain (5%)", close_rw and close_ra)

    worst = bench.run_bench(bench.BenchConfig(
        B=2000.0, mu=500.0, trials=100_000, seed=11, distributions=("worst_case_det",)
    ))
    wc = {(r.strategy): r.ratio for r in worst}
    gate.check("worst-case adversary: DET >= 2.9", wc["DET"] >= 2.9, f"{wc['DET']:.4f}")
    gate.check("worst-case adversary: RRW <= 2.05", wc["RRW"] <= 2.05, f"{wc['RRW']:.4f}")
    elapsed = time.time() - t0
    gate.check("runtime under 60 s", elapsed < 60.0, f"{elapsed:.1f}s")
    gate.finish()


def test_criterion_5_throughput_bound_campaign():
    gate = Gate("criterion 5")
    t0 = time.time()
    for name in ("stress_low.json", "stress_high.json"):
        raw = resources.files("graceperiod").joinpath("configs", name).read_text()
        config = config_from_dict(json.loads(raw))
        schedule = build_schedule(config)
        baseline = run_offline_baseline(config, schedule)
        ratios, check = throughput_campaign(config, 10_000, schedule, baseline)
        gate.check(
            f"{name}: mean ratio <= (2w+1)/(w+1) + 3 sigma", check.passed,
            f"lhs {check.lhs:.5f} vs rhs {check.rhs:.5f} + {check.margin:.5f} "
            f"(w = {baseline.waste:.4f}, {baseline.n_conflicts} conflicts)",
        )
        gate.check(f"{name}: bound strictly below 2", check.lhs < 2.0 and check.rhs < 2.0)
    elapsed = time.time() - t0
    gate.check("runtime under 5 min", elapsed < 300.0, f"{elapsed:.1f}s")
    gate.finish()


def test_criterion_6_progress_guarantee():
    gate = Gate("criterion 6")
    res = progress_check(y=64.0, gamma=4, k=2, B=1.0)
    gate.check("attempt bound is 11", res.bound_attempts == 11, str(res.bound_attempts))
    gate.check("commit probability >= 1/2", res.probability >= 0.5, f"{res.probability!r}")
    gate.check("doubled cost reaches 2*k*y*gamma", res.doubling_assert_ok)
    gate.finish()


def test_criterion_7_byte_identical_outputs(tmp_path):
    gate = Gate("criterion 7")
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "n_threads": 8, "mode": "requestor_wins",
        "policy": {"variant": "randomized_unconstrained", "B": 100.0},
        "length_model": {"kind": "exponential", "mean": 20.0},
        "conflict_schedule": {"kind": "random_rate", "rate": 0.3},
        "horizon": 1000.0, "seed": 99,
    }))
    commands = {
        "bench-synthetic": ["bench-synthetic", "--B", "2000", "--mu", "500",
                            "--trials", "5000", "--seed", "4"],
        "simulate": ["simulate", "--config", str(sim_cfg), "--campaign-seeds", "100"],
        "verify": ["verify"],
        "strategy-table": ["strategy-table", "--mode", "requestor_aborts",
                           "--strategy-variant", "randomized_constrained",
                           "--k", "3", "--B", "50", "--mu", "2", "--points", "64"],
    }
    for name, args in commands.items():
        out1, out2 = tmp_path / f"{name}.1", tmp_path / f"{name}.2"
        rc1 = main(args + ["--out", str(out1)])
        rc2 = main(args + ["--out", str(out2)])
        same = out1.read_bytes() == out2.read_bytes()
        gate.check(f"{name}: identical bytes across reruns", rc1 == rc2 and same)
    gate.finish()
