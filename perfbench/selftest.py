"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

They cover the self-time arithmetic, the output checkers (each must flag a
doctored output), the tracer's patching (nothing may stay patched, and a
traced CLI call must print exactly what an untraced one prints), and the
agreement of ``BENCHMARK.json`` with the metric tables in this directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer, leftover_patches, self_times  # noqa: E402


def _span(name, start, end, parent):
    rec = [None] * 5
    rec[NAME], rec[START], rec[END], rec[PARENT] = name, start, end, parent
    return rec


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
        spans = [
            _span("cli.main", 0.0, 10.0, -1),
            _span("bench.a", 1.0, 4.0, 0),
            _span("rng.a1", 2.0, 3.0, 1),
            _span("bench.b", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(sum(self_times(spans)), 10.0)

    def test_tracer_records_nesting(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.span_wrapper("rng.inner", lambda: None)
        outer = tracer.span_wrapper("bench.outer", lambda: inner() or inner())
        tracer.call("cli.main", outer)
        # clock reads: main 0, outer 1, inner 2-3, inner 4-5, outer 6, main 7
        self.assertEqual([s[PARENT] for s in tracer.spans], [-1, 0, 1, 1])
        self.assertEqual(self_times(tracer.spans), [2.0, 3.0, 1.0, 1.0])


def _bench_csv(mutate=None):
    rows = []
    ratios = {"DET": 1.3, "RRW": 2.0, "RRW(mu)": 1.2, "RRA": 1.58, "RRA(mu)": 1.25, "OPT": 1.0}
    for dist in ("geometric", "normal", "uniform", "exponential", "poisson"):
        for strat, ratio in ratios.items():
            row = [dist, strat, 100000, 400.0 * ratio, 400.0, ratio, 0.0 if strat == "OPT" else 0.003]
            if mutate:
                mutate(row)
            rows.append(",".join(map(repr, row)).replace("'", ""))
    return "\r\n".join([checks.BENCH_HEADER] + rows) + "\r\n"


def _simulate_doc():
    def side(commits, aborts, extra):
        return {
            "n_conflicts": commits + aborts, "commit_branches": commits,
            "abort_branches": aborts, "sum_rho": 16000.5, "sum_extra": extra,
            "sum_gamma": 16000.5 + extra, "schedule_digest": "ab" * 32,
        }

    return {
        "online": side(120, 30, 2600.25), "offline": side(140, 10, 2200.75),
        "bound_check": {"passed": False},
        "campaign": {"n_seeds": 10000, "bound_check": {"passed": True}},
    }


def _verify_doc():
    entries = [{"name": f"normalization/c{i}", "passed": True} for i in range(5)]
    return {"n_checks": len(entries), "checks": entries, "passed": True}


def _failed(found):
    return [name for name, ok in found if not ok]


class CheckerTest(unittest.TestCase):
    def test_bench_clean_output_passes(self):
        found, info = checks.check_bench(_bench_csv())
        self.assertEqual(_failed(found), [])
        self.assertEqual(info["work"], 3_000_000)

    def test_bench_flags_nan_ratio(self):
        def nan_poisson_rrw(row):
            if row[0] == "poisson" and row[1] == "RRW":
                row[5] = math.nan

        failed = _failed(checks.check_bench(_bench_csv(nan_poisson_rrw))[0])
        self.assertIn("poisson/RRW/finite", failed)

    def test_bench_flags_opt_ratio_and_bound(self):
        def doctor(row):
            if row[1] == "OPT" and row[0] == "uniform":
                row[5] = 1.0000001
            if row[1] == "RRA" and row[0] == "geometric":
                row[5] = 1.7

        failed = _failed(checks.check_bench(_bench_csv(doctor))[0])
        self.assertEqual(failed, ["geometric/RRA/ratio_in_bounds", "uniform/OPT/ratio_is_1"])

    def test_bench_mean_aware_cells_only_checked_below(self):
        def doctor(row):
            if row[1] == "RRW(mu)":
                row[5] = 5.0

        self.assertEqual(_failed(checks.check_bench(_bench_csv(doctor))[0]), [])

    def test_bench_flags_unparseable(self):
        self.assertEqual(_failed(checks.check_bench("not,a,csv\r\n")[0]), ["parse"])

    def test_simulate_clean_output_passes(self):
        found, info = checks.check_simulate(json.dumps(_simulate_doc()))
        self.assertEqual(_failed(found), [])
        self.assertEqual(info["work"], 10000 * 150)
        self.assertIs(info["single_run_bound_check"], False)  # recorded, not counted

    def test_simulate_flags_broken_amortization(self):
        doc = _simulate_doc()
        doc["online"]["sum_gamma"] += 1e-9
        self.assertEqual(_failed(checks.check_simulate(json.dumps(doc))[0]),
                         ["online/amortization"])

    def test_simulate_flags_branches_digest_and_campaign(self):
        doc = _simulate_doc()
        doc["offline"]["abort_branches"] += 1
        doc["offline"]["schedule_digest"] = "cd" * 32
        doc["campaign"]["bound_check"]["passed"] = False
        self.assertEqual(
            _failed(checks.check_simulate(json.dumps(doc))[0]),
            ["one_schedule", "offline/branches", "campaign/bound_check"],
        )

    def test_verify_flags_failed_check(self):
        doc = _verify_doc()
        self.assertEqual(_failed(checks.check_verify(json.dumps(doc))[0]), [])
        doc["checks"][3]["passed"] = False
        self.assertEqual(_failed(checks.check_verify(json.dumps(doc))[0]),
                         ["verify/normalization/c3"])


def _attribute_snapshot():
    from graceperiod import adversary, bench, cli, costmodel, oracle, quadrature, rng, simulator
    from graceperiod.rng import Stream
    from graceperiod.strategy import GracePeriodStrategy

    owners = (adversary, bench, cli, costmodel, oracle, quadrature, rng, simulator,
              Stream, GracePeriodStrategy)
    return {(id(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


def _cli(argv, tracer=None):
    from graceperiod import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    return rc, out.getvalue()


class TracerPatchTest(unittest.TestCase):
    SMALL_CALLS = (
        ["bench-synthetic", "--trials", "2000", "--seed", "3"],
        ["simulate", "--config", "stress_low.json", "--campaign-seeds", "20", "--seed", "3"],
        ["strategy-table", "--mode", "requestor_wins", "--strategy-variant",
         "randomized_constrained", "--B", "10", "--mu", "1", "--points", "5"],
    )

    def _traced(self, argv):
        before = _attribute_snapshot()
        tracer = Tracer()
        probes.install(tracer)
        self.assertNotEqual(_attribute_snapshot(), before)
        try:
            result = _cli(argv, tracer)
        finally:
            restored = tracer.restore()
        self.assertEqual(leftover_patches(restored), [])
        self.assertEqual(_attribute_snapshot(), before)
        return result, tracer

    def test_traced_output_is_byte_identical_and_nothing_stays_patched(self):
        for argv in self.SMALL_CALLS:
            with self.subTest(argv=argv[0]):
                plain = _cli(argv)
                traced, tracer = self._traced(argv)
                self.assertEqual(traced, plain)
                m = probes.layer_metrics(tracer)
                self.assertEqual(set(m), {name for name, _, _ in probes.PER_LAYER})
                covered = sum(m[f"{layer}.self_s"] for layer in probes.LAYERS)
                root = tracer.spans[0]
                self.assertAlmostEqual(covered, root[END] - root[START], places=9)

    def test_counts_and_draws(self):
        (rc, _), tracer = self._traced(self.SMALL_CALLS[0])
        m = probes.layer_metrics(tracer)
        self.assertEqual(rc, 0)
        self.assertEqual(m["bench.cells"], 30)
        # exponential lengths: one uniform for the length, one for the interrupt
        self.assertEqual(m["adversary.draws_per_sample.exponential"], 2.0)
        self.assertGreater(m["adversary.draws_per_sample.poisson"], 400.0)
        self.assertEqual(m["strategy.make_strategy_calls"], 25)
        (rc, _), tracer = self._traced(self.SMALL_CALLS[1])
        m = probes.layer_metrics(tracer)
        self.assertEqual(m["simulator.build_schedule_calls"], 2)
        self.assertEqual(m["simulator.run_calls"], 21)
        self.assertEqual(m["strategy.sample_calls.uniform"], 21 * m["simulator.events"])
        self.assertEqual(m["simulator.strategy_builds_per_run"], 1.0)

    def test_restored_after_a_failing_call(self):
        before = _attribute_snapshot()
        tracer = Tracer()
        probes.install(tracer)
        with self.assertRaises(ZeroDivisionError):
            tracer.call("cli.main", lambda: 1 / 0)
        self.assertEqual(leftover_patches(tracer.restore()), [])
        self.assertEqual(_attribute_snapshot(), before)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_tables(self):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [tuple(row) for row in run.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(row) for row in probes.PER_LAYER],
        )


if __name__ == "__main__":
    unittest.main()
