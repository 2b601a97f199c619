"""Where a traced CLI call hooks into graceperiod, and the per-layer metrics.

The layers are the package's modules.  Each hook wraps a public function at
the attribute its callers look it up through (``bench.remaining_time``,
``simulator.make_strategy``, ``oracle.adaptive_simpson``, ...), so the
program's own code is untouched.  Calls that take more than about 10
microseconds get spans; the hot scalar calls (``Stream.u64``,
``GracePeriodStrategy.sample``/``pdf``/``cdf``, quadrature integrands) are
only counted.  ``README.md`` in this directory lists which end-to-end
metric each of these should move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import END, NAME, NOTE, PARENT, START, self_times

LAYERS = (
    "adversary", "strategy", "rng", "simulator", "costmodel",
    "quadrature", "oracle", "bench", "cli",
)
# length kinds and strategy families the three workloads exercise
KINDS = ("geometric", "normal_truncated", "uniform", "exponential", "poisson")
FAMILIES = ("atom", "uniform", "rw_log", "ra_exp", "ra_expm1")
ORACLE_FNS = (
    "verify_pdf", "lagrange_identity_check", "worst_case_ratio",
    "optimality_probe", "abort_density_comparison",
)


def _metric_table() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in print order."""
    t = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for kind in KINDS:
        t.append((f"adversary.remaining_time_s.{kind}", "s", "lower"))
        t.append((f"adversary.draws_per_sample.{kind}", "draws/sample", "lower"))
    t += [
        ("adversary.sample_length_calls", "count", "lower"),
        ("adversary.sample_length_s", "s", "lower"),
    ]
    for fam in FAMILIES:
        t.append((f"strategy.sample_batch_s.{fam}", "s", "lower"))
        t.append((f"strategy.sample_batch_ns_per_draw.{fam}", "ns", "lower"))
        t.append((f"strategy.sample_calls.{fam}", "count", "lower"))
    t += [
        ("strategy.make_strategy_calls", "count", "lower"),
        ("strategy.make_strategy_s", "s", "lower"),
        ("strategy.pdf_calls", "count", "lower"),
        ("strategy.cdf_calls", "count", "lower"),
        ("rng.scalar_draws", "count", "lower"),
        ("rng.batch_draws", "count", "lower"),
        ("rng.batch_s", "s", "lower"),
        ("simulator.build_schedule_calls", "count", "lower"),
        ("simulator.build_schedule_s", "s", "lower"),
        ("simulator.events", "count", "higher"),
        ("simulator.transactions", "count", "higher"),
        ("simulator.run_calls", "count", "lower"),
        ("simulator.run_us_per_event.p50", "us", "lower"),
        ("simulator.run_us_per_event.p99", "us", "lower"),
        ("simulator.run_offline_s", "s", "lower"),
        ("simulator.campaign_s", "s", "lower"),
        ("simulator.strategy_builds_per_run", "count", "lower"),
        ("simulator.commit_frac", "frac", "higher"),
        ("costmodel.expected_cost_calls", "count", "lower"),
        ("costmodel.expected_cost_s", "s", "lower"),
        ("costmodel.batch_expected_costs_calls", "count", "lower"),
        ("costmodel.batch_expected_costs_s", "s", "lower"),
        ("quadrature.adaptive_simpson_calls", "count", "lower"),
        ("quadrature.adaptive_simpson_s", "s", "lower"),
        ("quadrature.integrand_evals", "count", "lower"),
    ]
    for fn in ORACLE_FNS:
        t.append((f"oracle.{fn}_calls", "count", "lower"))
        t.append((f"oracle.{fn}_s", "s", "lower"))
    t += [
        ("oracle.checks", "count", "higher"),
        ("oracle.checks_failed", "count", "lower"),
        ("bench.run_bench_s", "s", "lower"),
        ("bench.cells", "count", "higher"),
        ("bench.rows_to_csv_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return t


PER_LAYER = _metric_table()


def install(tracer) -> None:
    """Patch every hook into the imported graceperiod modules."""
    from graceperiod import adversary, bench, cli, costmodel, oracle, rng, simulator
    from graceperiod.rng import Stream
    from graceperiod.strategy import GracePeriodStrategy

    span, count, patch = tracer.span_wrapper, tracer.count_wrapper, tracer.patch
    golden_inv = pow(rng.GOLDEN, -1, 1 << 64)

    def spans(owner, attr, name, **kw):
        patch(owner, attr, lambda f: span(name, f, **kw))

    def draws_note(args, kwargs, result, state_before):
        model, stream, n = args[0], args[1], args[2]
        draws = ((stream._state - state_before) * golden_inv) & ((1 << 64) - 1)
        return model.kind, n, draws

    def count_integrand(args, kwargs):
        return (count("quadrature.integrand_evals", args[0]),) + args[1:], kwargs

    spans(bench, "run_bench", "bench.run_bench", note=lambda a, k, r, p: len(r))
    spans(bench, "rows_to_csv", "bench.rows_to_csv")

    spans(bench, "remaining_time", "adversary.remaining_time",
          before=lambda a, k: a[1]._state, note=draws_note)
    for owner in (adversary, simulator):
        spans(owner, "sample_length", "adversary.sample_length")

    for owner in (bench, simulator, oracle, cli):
        spans(owner, "make_strategy", "strategy.make_strategy")
    spans(GracePeriodStrategy, "sample_batch", "strategy.sample_batch",
          note=lambda a, k, r, p: (a[0].family, a[2]))
    patch(GracePeriodStrategy, "sample",
          lambda f: count("strategy.sample_calls", f, by_attr="family"))
    patch(GracePeriodStrategy, "pdf", lambda f: count("strategy.pdf_calls", f))
    patch(GracePeriodStrategy, "cdf", lambda f: count("strategy.cdf_calls", f))

    patch(Stream, "u64", lambda f: count("rng.scalar_draws", f))
    spans(Stream, "u64_batch", "rng.u64_batch", note=lambda a, k, r, p: a[1])

    spans(simulator, "simulate_pair", "simulator.simulate_pair")
    spans(simulator, "throughput_campaign", "simulator.throughput_campaign")
    spans(simulator, "build_schedule", "simulator.build_schedule",
          note=lambda a, k, r, p: (len(r.events), r.n_transactions))
    spans(simulator, "run", "simulator.run",
          note=lambda a, k, r, p: (r.n_conflicts, r.commit_branches))
    spans(simulator, "run_offline_baseline", "simulator.run_offline_baseline")
    spans(simulator, "throughput_bound_check", "simulator.throughput_bound_check")

    for fn in ("expected_cost", "batch_expected_costs", "ratio_profile"):
        spans(costmodel, fn, f"costmodel.{fn}")
    for owner in (costmodel, oracle):
        spans(owner, "adaptive_simpson", "quadrature.adaptive_simpson",
              wrap_args=count_integrand)

    spans(oracle, "run_verification_suite", "oracle.run_verification_suite",
          note=lambda a, k, r, p: (r["n_checks"], r["n_failed"]))
    for fn in ORACLE_FNS:
        spans(oracle, fn, f"oracle.{fn}")


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced call, except ``trace.overhead_s``
    (the difference of two calls, computed by the caller)."""
    spans = tracer.spans
    counts = tracer.counts
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (rec, own) in enumerate(zip(spans, self_times(spans))):
        by_name[rec[NAME]].append(i)
        m[rec[NAME].split(".")[0] + ".self_s"] += own

    def total_s(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def calls_and_s(prefix, name):
        m[f"{prefix}_calls"] = len(by_name[name])
        m[f"{prefix}_s"] = total_s(name)

    draws, trials = defaultdict(int), defaultdict(int)
    for i in by_name["adversary.remaining_time"]:
        kind, n, d = spans[i][NOTE]
        m[f"adversary.remaining_time_s.{kind}"] += spans[i][END] - spans[i][START]
        draws[kind] += d
        trials[kind] += n
    for kind in trials:
        m[f"adversary.draws_per_sample.{kind}"] = draws[kind] / trials[kind]
    calls_and_s("adversary.sample_length", "adversary.sample_length")

    batch_n = defaultdict(int)
    for i in by_name["strategy.sample_batch"]:
        fam, n = spans[i][NOTE]
        m[f"strategy.sample_batch_s.{fam}"] += spans[i][END] - spans[i][START]
        batch_n[fam] += n
    for fam, n in batch_n.items():
        m[f"strategy.sample_batch_ns_per_draw.{fam}"] = (
            m[f"strategy.sample_batch_s.{fam}"] / n * 1e9
        )
    for fam in FAMILIES:
        m[f"strategy.sample_calls.{fam}"] = counts["strategy.sample_calls", fam]
    calls_and_s("strategy.make_strategy", "strategy.make_strategy")
    m["strategy.pdf_calls"] = counts["strategy.pdf_calls"]
    m["strategy.cdf_calls"] = counts["strategy.cdf_calls"]

    m["rng.scalar_draws"] = counts["rng.scalar_draws"]
    m["rng.batch_draws"] = sum(spans[i][NOTE] for i in by_name["rng.u64_batch"])
    m["rng.batch_s"] = total_s("rng.u64_batch")

    calls_and_s("simulator.build_schedule", "simulator.build_schedule")
    if by_name["simulator.build_schedule"]:
        last = spans[by_name["simulator.build_schedule"][-1]][NOTE]
        m["simulator.events"], m["simulator.transactions"] = last
    runs = by_name["simulator.run"]
    m["simulator.run_calls"] = len(runs)
    per_event = [
        (spans[i][END] - spans[i][START]) / spans[i][NOTE][0] * 1e6
        for i in runs if spans[i][NOTE][0]
    ]
    if len(per_event) >= 2:
        m["simulator.run_us_per_event.p50"] = statistics.median(per_event)
        m["simulator.run_us_per_event.p99"] = statistics.quantiles(per_event, n=100)[98]
    m["simulator.run_offline_s"] = total_s("simulator.run_offline_baseline")
    m["simulator.campaign_s"] = total_s("simulator.throughput_campaign")
    if runs:
        run_set = set(runs)
        builds = sum(
            1 for i in by_name["strategy.make_strategy"] if spans[i][PARENT] in run_set
        )
        m["simulator.strategy_builds_per_run"] = builds / len(runs)
        conflicts = sum(spans[i][NOTE][0] for i in runs)
        if conflicts:
            m["simulator.commit_frac"] = sum(spans[i][NOTE][1] for i in runs) / conflicts

    calls_and_s("costmodel.expected_cost", "costmodel.expected_cost")
    calls_and_s("costmodel.batch_expected_costs", "costmodel.batch_expected_costs")
    calls_and_s("quadrature.adaptive_simpson", "quadrature.adaptive_simpson")
    m["quadrature.integrand_evals"] = counts["quadrature.integrand_evals"]

    for fn in ORACLE_FNS:
        calls_and_s(f"oracle.{fn}", f"oracle.{fn}")
    for i in by_name["oracle.run_verification_suite"]:
        m["oracle.checks"], m["oracle.checks_failed"] = spans[i][NOTE]

    m["bench.run_bench_s"] = total_s("bench.run_bench")
    m["bench.cells"] = sum(spans[i][NOTE] for i in by_name["bench.run_bench"])
    m["bench.rows_to_csv_s"] = total_s("bench.rows_to_csv")
    return m
