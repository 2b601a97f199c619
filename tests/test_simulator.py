import hashlib
import json
import math
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from dataclasses import fields, replace
from importlib import resources
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from graceperiod import simulator
from graceperiod import strategy as strategy_module
from graceperiod.adversary import KINDS, AdversaryModel, sample_length
from graceperiod.costmodel import batch_expected_costs, expected_cost, opt_cost
from graceperiod.rng import stream, streams
from graceperiod.simulator import (
    EVENT,
    PolicyConfig,
    Schedule,
    SimConfig,
    SimMetrics,
    TraceError,
    build_schedule,
    config_from_dict,
    parse_trace,
    progress_check,
    run,
    run_offline_baseline,
    simulate_pair,
    throughput_bound_check,
    throughput_campaign,
)
from graceperiod.strategy import (
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    competitive_ratio,
    make_strategy,
)
from test_cli import run_script
from test_golden import DIGESTS
from test_rng import top_cell_stream

RW = ConflictMode.REQUESTOR_WINS
RA = ConflictMode.REQUESTOR_ABORTS


def base_config(**overrides):
    defaults = dict(
        n_threads=8,
        mode=RW,
        policy=PolicyConfig(Variant.RANDOMIZED_UNCONSTRAINED, 100.0),
        length_model=AdversaryModel("exponential", 20.0),
        horizon=1000.0,
        seed=404,
        conflict_rate=0.5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def micro_trace_config(tmp_path, text, **overrides):
    path = tmp_path / "micro.trace"
    path.write_text(text)
    defaults = dict(
        n_threads=2,
        mode=RW,
        policy=PolicyConfig(Variant.RANDOMIZED_UNCONSTRAINED, 100.0),
        length_model=AdversaryModel("point_mass", 50.0, value=50.0),
        horizon=160.0,
        seed=9,
        trace_path=str(path),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


MICRO_TRACE = "10 0 2\n70 1 2\n130 0 3\n"


def one_thread_schedule(k, ys, B):
    """Conflicts of chain size ``k`` at remaining times ``ys`` on thread 0,
    one per transaction, for replaying by hand."""
    events = np.array([(float(i), 0, k, y, i, 0.0, B) for i, y in enumerate(ys)], dtype=EVENT)
    return Schedule(events, 1, 1, 1.0, "")


def replay(config, sched, lanes, n):
    """The replay's grace periods and costs, each an ``(events, n)`` array
    assembled from its tiles (an atom's one column stands for every lane)."""
    x, costs = np.empty((2, len(sched.events), n))
    for rows, seeds, tile_x, cost in simulator._online_replay(config, sched, lanes, n):
        x[rows, seeds], costs[rows, seeds] = tile_x, cost
    return x, costs


def pair(config):
    """``simulate_pair`` of a freshly built schedule."""
    return simulate_pair(config, build_schedule(config))


def campaign(config, n_seeds):
    """``throughput_campaign`` of a freshly built schedule and its baseline."""
    sched = build_schedule(config)
    return throughput_campaign(config, n_seeds, sched, run_offline_baseline(config, sched))


def assert_same_schedule(got, want, name=""):
    """Field by field, bit for bit: a Schedule holds arrays, so it has no ``==``."""
    assert got.digest == want.digest, name
    assert got.events.dtype == want.events.dtype == EVENT, name
    assert got.events.tobytes() == want.events.tobytes(), name
    scalars = ("n_transactions", "transactions_committed", "sum_rho")
    assert [getattr(got, f) for f in scalars] == [getattr(want, f) for f in scalars], name


def assert_same_lengths(config, name=""):
    """Each thread's block-drawn lengths, starts and total equal the scalar
    reference's one-by-one draws and sums, bit for bit."""
    lengths, starts, totals = reference_lengths(config)
    for thread in range(config.n_threads):
        got_starts, got_lengths, got_total = simulator._draw_lengths(config, thread)
        assert got_lengths.dtype == got_starts.dtype == np.float64, name
        assert got_lengths.tobytes() == np.array(lengths[thread]).tobytes(), name
        assert got_starts.tobytes() == np.array(starts[thread]).tobytes(), name
        assert got_total == totals[thread], name


class TestSchedule:
    def test_zero_rate_is_conflict_free(self):
        config = base_config(conflict_rate=0.0)
        online, offline, check = pair(config)
        assert online.n_conflicts == 0
        assert online.waste == 0.0
        assert online.global_ratio == 1.0
        assert online.sum_gamma == online.sum_rho
        assert check.rhs == 1.0 and check.lhs == 1.0

    def test_exclusion_window_keeps_receivers_clear(self):
        config = base_config(conflict_rate=5.0)  # heavy thinning
        sched = build_schedule(config)
        last_allowed = {}
        for t, thr, k, y, _, _, b_cost in sched.events.tolist():
            if thr in last_allowed:
                assert t >= last_allowed[thr]
            if (k - 1) * y <= b_cost:
                window = max(y, b_cost / (k - 1))
            else:
                window = b_cost / (k - 1)  # abort forced in both runs
            last_allowed[thr] = t + window

    def test_pegged_remaining_time_is_consistent(self):
        config = base_config()
        sched = build_schedule(config)
        lengths = [simulator._draw_lengths(config, i)[1] for i in range(config.n_threads)]
        for _, thr, _, y, idx, elapsed, _ in sched.events.tolist():
            rho = lengths[thr][idx]
            assert 0.0 < y <= rho + 1e-12
            assert elapsed == pytest.approx(rho - y, rel=1e-9, abs=1e-9)

    def test_subnormal_rate_draws_no_conflict(self):
        # each gap overflows to inf, past the horizon; numpy's overflow warning
        # used to escape (an error in this suite and under CI's warning filter)
        for rate in (5e-324, 2.2250738585e-313, 1e-300):
            config = base_config(conflict_rate=rate)
            sched = build_schedule(config)
            assert len(sched.events) == 0
            assert_same_schedule(sched, reference_build_schedule(config))

    def test_chain_size_distribution(self):
        config = base_config(chain_size={2: 0.5, 4: 0.5}, conflict_rate=1.0)
        sched = build_schedule(config)
        ks = set(sched.events["k"].tolist())
        assert ks <= {2, 4} and len(ks) == 2

    def test_top_cell_picks_the_last_chain_size(self, monkeypatch):
        # ten weights of 0.1: np.sum adds them pairwise and cumsum in order, so
        # cumsum / sum ends below 1, under a top-cell draw
        w = np.full(10, 0.1)
        assert np.cumsum(w)[-1] / np.sum(w) == 1.0 - 2.0**-53
        config = base_config(chain_size={k: 0.1 for k in range(2, 12)})
        # the "conflicts" stream's third draw, the first candidate's k, is the top cell
        real = simulator.stream
        monkeypatch.setattr(simulator, "stream", lambda seed, *tokens: (
            top_cell_stream(3) if tokens == ("conflicts",) else real(seed, *tokens)))
        _, _, k = next(next(simulator._candidate_blocks(config)))
        assert k == 11
        assert build_schedule(config).events["k"][0] == 11

    def test_events_are_one_record_array(self):
        # what the replay and perfbench's schedule probe read: one EVENT
        # record per admitted conflict, in time order, with an integer k
        config = base_config(chain_size={2: 1, 3: 1, 8: 1}, doubling_backoff=True)
        sched = build_schedule(config)
        assert sched.events.dtype == EVENT
        assert sched.events.dtype["k"].kind == "i"
        assert np.all(np.diff(sched.events["time"]) >= 0.0)
        # the schedule holds no copy of the timelines, only their totals
        assert [f.name for f in fields(Schedule)] == [
            "events", "n_transactions", "transactions_committed", "sum_rho", "digest"
        ]
        per_thread = [simulator._draw_lengths(config, i) for i in range(config.n_threads)]
        assert sched.n_transactions == sum(len(lengths) for _, lengths, _ in per_thread)
        assert len(sched.events) == run(config, sched).n_conflicts > 0

    def test_digest_is_the_sha256_of_the_schedule_text(self, tmp_path):
        # hashlib is the reference here; the simulator hashes with the
        # interpreter's own SHA-256 (_sha2 or _sha256) and never loads hashlib
        sched = build_schedule(bundled_config("stress_high.json", 1))
        text = "\n".join(f"{t!r} {thr} {k} {y!r}" for t, thr, k, y, *_ in sched.events.tolist())
        assert sched.digest == hashlib.sha256(text.encode("ascii")).hexdigest()
        # without either built-in module, the hashlib fallback prints the golden row
        argv = ["simulate", "--config", "stress_high.json", "--campaign-seeds", "1000", "--seed", "1"]
        script = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from graceperiod import cli, simulator\n"
            "assert simulator.sha256 is __import__('hashlib').sha256\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        out = run_script(script, cwd=tmp_path)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[tuple(argv)]

    def test_build_peak_memory_is_bounded(self):
        # the timelines are held once, as the arrays the block draw returns:
        # stress_high over 2e5 time units peaks near 10.5 MB of allocations,
        # where holding a list copy of every start and length took 15.6 MB
        config = replace(bundled_config("stress_high.json", 72), horizon=2e5)
        build_schedule(replace(config, horizon=2e3))  # imports and first-call caches
        tracemalloc.start()
        try:
            build_schedule(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12.5e6, f"{peak / 1e6:.2f} MB"


class TestMicroTrace:
    def test_offline_waste_matches_hand_computation(self, tmp_path):
        config = micro_trace_config(tmp_path, MICRO_TRACE)
        sched = build_schedule(config)
        assert sched.events[["time", "thread", "k"]].tolist() == [
            (10.0, 0, 2), (70.0, 1, 2), (130.0, 0, 3)
        ]
        assert sched.events["y"].tolist() == [40.0, 30.0, 20.0]
        # each thread: transactions of length 50 until the horizon is covered
        assert sched.n_transactions == 8
        assert sched.sum_rho == 400.0
        offline = run_offline_baseline(config, sched)
        # waits cost 40, 30, and (k-1)*y = 40; no aborts
        assert offline.sum_extra == pytest.approx(110.0)
        assert offline.abort_branches == 0
        assert offline.waste == pytest.approx(110.0 / 400.0)

    def test_offline_aborts_when_waiting_costs_more(self, tmp_path):
        config = micro_trace_config(tmp_path, "10 0 2\n", policy=PolicyConfig(
            Variant.RANDOMIZED_UNCONSTRAINED, 25.0))
        offline = run_offline_baseline(config, build_schedule(config))
        # y = 40 > B = 25: immediate abort at cost B
        assert offline.abort_branches == 1
        assert offline.sum_extra == pytest.approx(25.0)

    def test_trace_entry_during_grace_window_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="grace window"):
            build_schedule(micro_trace_config(tmp_path, "10 0 2\n50 0 2\n"))

    @pytest.mark.parametrize("dynamic_b, B, cleanup, source, got", [
        (False, 1e250, 0.0, "policy.B", "2e\\+250"),
        (True, 1.0, 9e249, "elapsed \\+ cleanup_cost", "1.8\\d*e\\+250"),
    ], ids=["policy.B", "cleanup_cost"])
    def test_backoff_past_the_abort_cost_range_rejected(
        self, tmp_path, dynamic_b, B, cleanup, source, got
    ):
        # a forced abort at chain size 2**52 closes the window after B/(k-1), so
        # a second conflict doubles an abort cost near 1e250 past the range; the
        # build names its source, time and thread, where the replay named none
        common = dict(
            n_threads=1, policy=PolicyConfig(Variant.DETERMINISTIC, B),
            length_model=AdversaryModel("point_mass", 1e245, value=1e245), horizon=1e240,
            doubling_backoff=True, dynamic_b=dynamic_b, cleanup_cost=cleanup,
        )
        random = base_config(conflict_rate=1e-236, chain_size=2**52, **common)
        with pytest.raises(ValueError, match=(
            rf"^(under dynamic_b, )?the conflict at time [-+.e\d]+ on thread 0 costs {source}"
            rf" times its doubling_backoff factor 2, outside \[1e-250, 1e\+250\], got {got}$"
        )) as exc:
            build_schedule(random)
        assert not isinstance(exc.value, TraceError)
        trace = micro_trace_config(tmp_path, f"0 0 {2**52}\n1e235 0 {2**52}\n", **common)
        with pytest.raises(TraceError, match=rf"entry 2: .*time 1e\+235 on thread 0 costs {source}"):
            build_schedule(trace)

    def test_dynamic_b_zero_abort_cost_rejected(self, tmp_path):
        # dynamic_b charges elapsed + cleanup_cost, which is 0 at a
        # transaction's start when cleanup_cost is 0
        config = micro_trace_config(tmp_path, "0 0 2\n", dynamic_b=True)
        with pytest.raises(TraceError, match=r"entry 1: .*dynamic_b.*cleanup_cost"):
            build_schedule(config)
        config = micro_trace_config(tmp_path, "0 0 2\n", dynamic_b=True, cleanup_cost=5.0)
        assert build_schedule(config).events["b_cost"].tolist() == [5.0]
        # the same range as a policy's B: a cost below 1e-250 is refused too
        config = micro_trace_config(tmp_path, "0 0 2\n", dynamic_b=True, cleanup_cost=1e-300)
        with pytest.raises(TraceError, match=r"entry 1: under dynamic_b, .*, got 1e-300 "):
            build_schedule(config)

    def test_trace_descending_times_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="nondecreasing"):
            build_schedule(micro_trace_config(tmp_path, "10 0 2\n5 1 2\n"))

    def test_trace_first_bad_line_in_file_order_named(self, tmp_path):
        # one pass: a time decrease on line 3 is named before a malformed line 4
        path = tmp_path / "two_faults.txt"
        path.write_text("# t thread k\n10 0 2\n5 1 2\n20 0\n")
        with pytest.raises(TraceError, match=r"faults.txt':3: conflict times must be"):
            parse_trace(str(path))
        path.write_text("10 0 2\n20 0\n5 1 2\n")
        with pytest.raises(TraceError, match=r"faults.txt':2: expected"):
            parse_trace(str(path))

    def test_online_mean_extra_matches_closed_form(self, tmp_path):
        # one conflict, k = 2, y = 40 <= B: the uniform policy's expected
        # extra equals 2y; check the Monte-Carlo mean over many policy seeds,
        # replayed at once: lane i draws from stream(config.seed, "mc", i)
        config = micro_trace_config(tmp_path, "10 0 2\n")
        sched = build_schedule(config)
        n = 10_000
        _, [extras] = replay(config, sched, streams(config.seed, "mc", n=n), n)
        for i in (0, 4321, n - 1):  # each lane is that seed's single run
            single = run(config, sched, policy_stream=stream(config.seed, "mc", i))
            assert extras[i] == single.sum_extra
        stderr = extras.std(ddof=1) / math.sqrt(len(extras))
        assert abs(extras.mean() - 2.0 * 40.0) <= 3.0 * stderr
        offline = run_offline_baseline(config, sched)
        assert extras.mean() <= 2.0 * offline.sum_extra + 3.0 * stderr

    def test_discrete_classic_replay_costs_equal_costmodel(self):
        # The replay charges a day-i abort i - 1 + B and commits iff y < i, as
        # costmodel's classic accounting does, so each conflict's expected
        # cost is batch_expected_costs and the worst ratio is the optimum.
        B = 100.0
        config = base_config(mode=RA, policy=PolicyConfig(Variant.DISCRETE_CLASSIC, B))
        strat = make_strategy(config.policy_spec(2, B))
        pmf, cum = strat.params["pmf"], strat.params["cumulative"]
        ys = np.arange(0.5, 130.0, 0.5)
        sched = one_thread_schedule(2, ys, B)
        # one lane per day: each lane's uniform maps to its own day, written into
        # the replay's workspace as a stream's draws are
        day_uniforms = cum - 0.5 * pmf

        def uniform_batch(m, out, scratch):
            out = out.reshape(m, -1)
            out[:] = day_uniforms
            return out

        lanes = SimpleNamespace(uniform_batch=uniform_batch)
        x, costs = replay(config, sched, lanes, len(pmf))
        assert all(np.array_equal(row, np.arange(1.0, B + 1.0)) for row in x)
        simulated = costs @ pmf
        assert np.allclose(simulated, batch_expected_costs(strat, ys), rtol=1e-12, atol=0.0)
        worst = float(np.max(simulated / opt_cost(2, B, ys)))
        optimum = competitive_ratio(config.policy_spec(2, B)).theoretical_ratio
        assert worst == pytest.approx(1.5773675300856045, abs=1e-12)
        assert optimum == pytest.approx(1.5773675300856045, abs=1e-12)

    # one policy per family: (mode, k, variant, mu), each at B = 100
    REPLAY_FAMILIES = {
        "atom": (RW, 2, Variant.DETERMINISTIC, None),
        "uniform": (RW, 2, Variant.RANDOMIZED_UNCONSTRAINED, None),
        "rw_power": (RW, 4, Variant.RANDOMIZED_UNCONSTRAINED, None),
        "rw_log": (RW, 2, Variant.RANDOMIZED_CONSTRAINED, 10.0),
        "rw_shifted_power": (RW, 4, Variant.RANDOMIZED_CONSTRAINED, 1.0),
        "ra_exp": (RA, 3, Variant.RANDOMIZED_UNCONSTRAINED, None),
        "ra_expm1": (RA, 3, Variant.RANDOMIZED_CONSTRAINED, 1.0),
        "discrete_classic": (RA, 2, Variant.DISCRETE_CLASSIC, None),
    }

    @pytest.mark.parametrize("family", list(REPLAY_FAMILIES))
    def test_replay_mean_cost_matches_costmodel(self, family):
        mode, k, variant, mu = self.REPLAY_FAMILIES[family]
        B, n = 100.0, 100_000
        config = base_config(mode=mode, policy=PolicyConfig(variant, B, mu))
        strat = make_strategy(config.policy_spec(k, B))
        assert strat.family == family
        S = strat.support_max
        ys = np.array([0.1 * S, 0.5 * S, 0.9 * S, S, 1.5 * S])
        if family == "discrete_classic":
            ys = np.array([0.5, 37.0, 37.5, 99.5, 100.0, 150.0])  # ties at integer days
        sched = one_thread_schedule(k, ys, B)
        _, costs = replay(config, sched, streams(config.seed, "mc", n=n), n)
        stderr = costs.std(axis=1, ddof=1) / math.sqrt(n)
        expected = batch_expected_costs(strat, ys)
        assert np.all(np.abs(costs.mean(axis=1) - expected) <= 4.0 * stderr + 1e-12 * expected)

    def test_trace_bad_fields_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="expected"):
            build_schedule(micro_trace_config(tmp_path, "10 0\n"))
        with pytest.raises(TraceError, match="out of range"):
            build_schedule(micro_trace_config(tmp_path, "10 7 2\n"))
        with pytest.raises(TraceError, match="chain size"):
            build_schedule(micro_trace_config(tmp_path, "10 0 1\n"))

    def test_trace_bytes_that_are_not_utf8_rejected_by_line(self, tmp_path):
        # they used to raise a UnicodeDecodeError that named no line
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"# \xff in a comment\n10 0 2\n20 \xff 2\n")
        with pytest.raises(TraceError, match=r"bytes.txt':3: .*\\udcff"):
            parse_trace(str(path))

    def test_trace_chain_size_past_the_float_range_rejected(self, tmp_path):
        # an OverflowError used to escape the chain-size check
        with pytest.raises(TraceError, match="entry 1: .*chain size k must be an integer"):
            build_schedule(micro_trace_config(tmp_path, f"10 0 {10**400}\n"))

    def test_trace_chain_size_the_policy_cannot_serve_rejected(self, tmp_path):
        # the discrete classic is defined at k = 2 only
        config = micro_trace_config(
            tmp_path, "10 0 2\n70 1 3\n", mode=RA,
            policy=PolicyConfig(Variant.DISCRETE_CLASSIC, 100.0),
        )
        with pytest.raises(TraceError, match="entry 2: .*chain size 3"):
            build_schedule(config)


class TestRunInvariants:
    def test_determinism_bit_identical(self):
        config = base_config()
        a, b = build_schedule(config), build_schedule(config)
        assert_same_schedule(a, b)
        assert run(config, a) == run(config, b)
        assert run_offline_baseline(config, a) == run_offline_baseline(config, b)

    def test_schedule_parity(self):
        config = base_config()
        online, offline, _ = pair(config)
        assert online.schedule_digest == offline.schedule_digest
        assert online.n_conflicts == offline.n_conflicts
        assert online.n_transactions == offline.n_transactions
        assert online.sum_rho == offline.sum_rho

    def test_conservation_is_exact(self):
        for rate in (0.05, 0.5):
            config = base_config(conflict_rate=rate)
            sched = build_schedule(config)
            for metrics in (run(config, sched), run_offline_baseline(config, sched)):
                assert metrics.sum_gamma == metrics.sum_rho + metrics.sum_extra

    def test_per_conflict_dominance(self):
        # each conflict's expected online cost stays within the competitive
        # ratio of the offline cost (flat at exactly 2 for the uniform policy)
        config = base_config()
        sched = build_schedule(config)
        strat = make_strategy(StrategySpec(RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
        for k, y in sched.events[["k", "y"]].tolist():
            assert k == strat.spec.k
            cost = expected_cost(strat, y)
            assert cost <= 2.0 * opt_cost(k, 100.0, y) * (1 + 1e-9)

    def test_offline_extra_equals_sum_of_optima(self):
        config = base_config()
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        expected = sum(opt_cost(k, 100.0, y) for k, y in sched.events[["k", "y"]].tolist())
        assert offline.sum_extra == pytest.approx(expected, rel=1e-12)

    def test_online_never_beats_offline(self):
        # per conflict the online extra dominates min((k-1)y, B), so the
        # global ratio cannot fall below one
        for seed in (404, 405, 406):
            online, offline, _ = pair(base_config(seed=seed))
            assert online.sum_extra >= offline.sum_extra
            assert online.global_ratio >= 1.0

    def test_attempts_histogram_counts_transactions(self):
        config = base_config()
        metrics = run(config, build_schedule(config))
        assert sum(metrics.attempts_hist.values()) == metrics.n_transactions
        assert (
            sum((a - 1) * c for a, c in metrics.attempts_hist.items())
            == metrics.abort_branches
        )

    def test_ra_receiver_never_restarts(self):
        config = base_config(mode=RA)
        metrics = run(config, build_schedule(config))
        assert set(metrics.attempts_hist) == {1}

    def test_doubling_backoff_doubles_costs(self, tmp_path):
        # two forced aborts on one long transaction: (k-1)*y > B both times,
        # so the abort cost doubles identically for online and offline runs
        path = tmp_path / "t.trace"
        path.write_text("10 0 2\n20 0 2\n")
        config = SimConfig(
            n_threads=1, mode=RW,
            policy=PolicyConfig(Variant.DETERMINISTIC, 4.0),
            length_model=AdversaryModel("point_mass", 200.0, value=200.0),
            horizon=200.0, seed=1, trace_path=str(path), doubling_backoff=True,
        )
        sched = build_schedule(config)
        # both hit transaction 0, whose abort cost doubles after the first
        assert sched.events["tx_index"].tolist() == [0, 0]
        assert sched.events["b_cost"].tolist() == [4.0, 8.0]
        metrics = run(config, sched)
        assert metrics.abort_branches == 2
        assert metrics.attempts_hist == {3: 1}  # the one transaction, aborted twice
        # extras: (2x+B) at B=4 then at B=8, with x = B/(k-1) = B
        assert metrics.sum_extra == pytest.approx((2 * 4 + 4) + (2 * 8 + 8))
        offline = run_offline_baseline(config, sched)
        assert offline.sum_extra == pytest.approx(4.0 + 8.0)

    def test_doubling_does_not_touch_ra_receivers(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("10 0 2\n20 0 2\n")
        config = SimConfig(
            n_threads=1, mode=RA,
            policy=PolicyConfig(Variant.RANDOMIZED_UNCONSTRAINED, 4.0),
            length_model=AdversaryModel("point_mass", 200.0, value=200.0),
            horizon=200.0, seed=1, trace_path=str(path), doubling_backoff=True,
        )
        sched = build_schedule(config)
        # the aborted parties are fresh requestors; the receiver's B stays put
        assert sched.events["b_cost"].tolist() == [4.0, 4.0]

    def test_dynamic_b_uses_elapsed_plus_cleanup(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("10 0 2\n")
        config = SimConfig(
            n_threads=1, mode=RW,
            policy=PolicyConfig(Variant.DETERMINISTIC, 999.0),
            length_model=AdversaryModel("point_mass", 50.0, value=50.0),
            horizon=50.0, seed=1, trace_path=str(path),
            dynamic_b=True, cleanup_cost=5.0,
        )
        metrics = run(config, build_schedule(config))
        # elapsed = 10, cleanup = 5 -> B = 15, det grace x = 15 < y = 40: abort
        assert metrics.abort_branches == 1
        assert metrics.sum_extra == pytest.approx(2 * 15.0 + 15.0)


class TestReplayTiles:
    def test_inverse_calls_are_at_most_groups_times_tiles(self):
        # mixed chain sizes under dynamic_b, crossing the mean threshold: one
        # inverse call per (family, k) group of each tile, where the replay
        # that cut the schedule into runs of equal (k, B) made one per event
        config = base_config(
            policy=PolicyConfig(Variant.RANDOMIZED_CONSTRAINED, 100.0, mu=10.0),
            chain_size={2: 1.0, 3: 1.0, 8: 1.0}, dynamic_b=True, cleanup_cost=5.0,
        )
        sched = build_schedule(config)
        strategies, _ = simulator._groups(config, sched.events["k"], sched.events["b_cost"])
        assert len({s.mean_aware for s in strategies}) == 2  # both sides of the threshold
        tiles = -(-len(sched.events) // simulator._CHUNK_CELLS)
        quantile = GracePeriodStrategy.quantile
        with mock.patch.object(GracePeriodStrategy, "quantile", autospec=True,
                               side_effect=quantile) as inverse:
            metrics = run(config, sched)
        assert inverse.call_count <= len(strategies) * tiles < len(sched.events) / 50
        assert metrics == reference_run(config, sched)

    def test_campaign_peak_memory_is_its_arrays_and_one_cost_tile(self):
        # the 10k-seed stress_high campaign holds its ratios, stream states and
        # sums, the workspace (two tiles) and one cost tile, np.where's result,
        # with its mask and a cast buffer; a temporary per tile would not fit
        config = bundled_config("stress_high.json", 72)
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        n = 10_000
        cells = min(simulator._CHUNK_CELLS // n, len(sched.events)) * n
        tracemalloc.start()
        try:
            throughput_campaign(config, n, sched, offline)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * n + 3 * cells) + cells + 2**16, peak


class TestThroughputBound:
    def test_bound_check_requires_matching_schedules(self):
        config, other = base_config(), base_config(seed=405)
        m1 = run(config, build_schedule(config))
        m2 = run_offline_baseline(other, build_schedule(other))
        with pytest.raises(ValueError):
            throughput_bound_check(m1, m2)

    def test_campaign_bound_holds(self):
        ratios, check = campaign(base_config(), 400)
        assert check.passed
        assert simulator.N_SIGMA == 3.0 and check.margin == 3.0 * check.stderr
        assert check.lhs < 2.0
        assert 1.0 < check.rhs < 2.0  # (2w+1)/(w+1) of a positive waste w

    def test_campaign_matches_individual_runs(self):
        config = base_config()
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        ratios, _ = throughput_campaign(config, 5, sched, offline)
        for i in range(5):
            m = run(config, sched, policy_stream=stream(config.seed, "campaign", i))
            assert ratios[i] == m.sum_gamma / offline.sum_gamma

    def test_campaign_reuses_given_schedule_and_baseline(self):
        config = base_config()
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        ratios, check = throughput_campaign(config, 30, sched, offline)
        # a rebuilt schedule and baseline give the same campaign and pair
        again = campaign(config, 30)
        assert np.array_equal(ratios, again[0]) and check == again[1]
        got_pair = simulate_pair(config, sched)
        assert got_pair == pair(config)
        assert got_pair[1] == replace(offline, global_ratio=1.0)

    def test_baseline_of_another_schedule_rejected(self):
        sched = build_schedule(base_config())
        other_config = base_config(seed=405)
        other = run_offline_baseline(other_config, build_schedule(other_config))
        with pytest.raises(ValueError, match="offline baseline"):
            throughput_campaign(base_config(), 10, sched, other)

    def test_campaign_rejects_no_seeds(self):
        for n_seeds in (0, -3):
            with pytest.raises(ValueError, match="n_seeds"):
                campaign(base_config(), n_seeds)

    def test_campaign_engine_matches_per_seed_reference(self):
        for name, config, families in engine_cases():
            sched = build_schedule(config)
            offline = run_offline_baseline(config, sched)
            assert len(sched.events), name
            # some abort cost carries a backoff multiplier iff backoff is on
            events = sched.events
            base_b = events["elapsed"] + config.cleanup_cost if config.dynamic_b else config.policy.B
            assert bool(np.any(events["b_cost"] > base_b)) == config.doubling_backoff, name
            assert policy_families(config, sched) == families, name
            ratios, _ = throughput_campaign(config, ENGINE_SEEDS, sched, offline)
            expected = reference_campaign_ratios(config, sched, offline, ENGINE_SEEDS)
            assert np.array_equal(ratios, expected), name

    def test_rhs_limits(self):
        # waste 0 -> bound 1; huge waste -> bound approaches 2
        assert (2 * 0.0 + 1) / (0.0 + 1) == 1.0
        w = 1e9
        assert (2 * w + 1) / (w + 1) == pytest.approx(2.0, abs=1e-6)


ENGINE_SEEDS = 20


def engine_cases():
    """``(name, config, policy families it resolves to)`` for the engine test."""
    raw = resources.files("graceperiod").joinpath("configs", "stress_high.json").read_text()
    return [
        ("stress_high", config_from_dict(json.loads(raw)), {"uniform"}),
        ("ra_exp + ra_expm1", base_config(
            mode=RA, policy=PolicyConfig(Variant.RANDOMIZED_CONSTRAINED, 100.0, mu=70.0),
            chain_size={2: 0.5, 3: 0.5}, horizon=400.0,
        ), {"ra_exp", "ra_expm1"}),
        ("discrete_classic", base_config(
            mode=RA, policy=PolicyConfig(Variant.DISCRETE_CLASSIC, 100.0),
        ), {"discrete_classic"}),
        ("atom", base_config(policy=PolicyConfig(Variant.DETERMINISTIC, 100.0)), {"atom"}),
        ("rw_log + rw_shifted_power", base_config(
            policy=PolicyConfig(Variant.RANDOMIZED_CONSTRAINED, 100.0, mu=10.0),
            chain_size={2: 0.4, 3: 0.3, 4: 0.3}, horizon=300.0,
        ), {"rw_log", "rw_shifted_power"}),
        ("rw_power", base_config(
            policy=PolicyConfig(Variant.RANDOMIZED_CONSTRAINED, 100.0, mu=90.0),
            chain_size={2: 0.5, 3: 0.5},
        ), {"uniform", "rw_power"}),
        ("dynamic_b + cleanup + backoff", base_config(
            dynamic_b=True, cleanup_cost=5.0, doubling_backoff=True, conflict_rate=2.0,
        ), {"uniform"}),
    ]


def policy_families(config, sched):
    return {
        make_strategy(StrategySpec(
            config.mode, k, b_cost, config.policy.variant, mu=config.policy.mu
        )).family
        for k, b_cost in sched.events[["k", "b_cost"]].tolist()
    }


def reference_campaign_ratios(config, sched, offline, n_seeds):
    """The per-seed scalar replay: one stream per seed, one ``sample`` per event."""
    return np.array([
        reference_run(config, sched, stream(config.seed, "campaign", i)).sum_gamma
        / offline.sum_gamma
        for i in range(n_seeds)
    ])


# -- the scalar reference: one length or conflict-candidate draw at a time,
# one grace-period sample per event, every sum added one term at a time ----


def reference_lengths(config):
    """Per thread, the ``"rho"`` stream's lengths drawn one at a time up to the
    horizon, their starts and their total, each summed one term at a time."""
    lengths, starts, totals = [], [], []
    for thread in range(config.n_threads):
        s = stream(config.seed, "rho", thread)
        rs, ss, total = [], [], 0.0
        while total < config.horizon:
            r = float(sample_length(config.length_model, s, 1)[0])
            rs.append(r)
            ss.append(total)
            total += r
        lengths.append(rs)
        starts.append(ss)
        totals.append(total)
    return lengths, starts, totals


def reference_build_schedule(config):
    """The scalar schedule builder the block-drawing ``build_schedule`` replaces."""
    lengths, starts, totals = reference_lengths(config)

    if config.trace_path is not None:
        candidates = parse_trace(config.trace_path)
    elif config.conflict_rate > 0.0:
        if isinstance(config.chain_size, dict):
            items = sorted(config.chain_size.items())
            weights = np.array([w for _, w in items], dtype=float)
            cum = np.cumsum(weights) / np.sum(weights)
            cum[-1] = 1.0
            sizes = [int(k) for k, _ in items]
            draw_k = lambda u: sizes[int(np.searchsorted(cum, u, side="right"))]  # noqa: E731
        else:
            draw_k = lambda u: config.chain_size  # noqa: E731
        s = stream(config.seed, "conflicts")
        candidates, t = [], 0.0
        while True:
            t += -math.log(s.uniform_open_batch(1)[0]) / config.conflict_rate
            if t >= config.horizon:
                break
            thr = int((s.u64() >> 11) * 2**-53 * config.n_threads)
            candidates.append((t, thr, draw_k((s.u64() >> 11) * 2**-53)))
    else:
        candidates = []

    next_allowed = [0.0] * config.n_threads
    mults, rows = {}, []
    for t, thr, k in candidates:
        if t < next_allowed[thr]:
            if config.trace_path is not None:
                raise TraceError("grace window")
            continue
        idx = bisect_right(starts[thr], t) - 1
        elapsed = t - starts[thr][idx]
        y = lengths[thr][idx] - elapsed
        base_b = elapsed + config.cleanup_cost if config.dynamic_b else config.policy.B
        b_cost = base_b * mults.get((thr, idx), 1.0)
        if (k - 1) * y <= b_cost:
            window = max(y, b_cost / (k - 1))
        else:
            window = b_cost / (k - 1)
            if config.doubling_backoff and config.mode is RW:
                mults[thr, idx] = mults.get((thr, idx), 1.0) * 2.0
        next_allowed[thr] = t + window
        rows.append((t, thr, k, y, idx, elapsed, b_cost))

    digest = "\n".join(f"{t!r} {thr} {k} {y!r}" for t, thr, k, y, *_ in rows)
    sum_rho = 0.0
    for total in totals:
        sum_rho += total
    return Schedule(
        events=np.array(rows, dtype=EVENT),
        n_transactions=sum(len(rs) for rs in lengths),
        transactions_committed=sum(
            1
            for rs, ss in zip(lengths, starts)
            for r, start in zip(rs, ss)
            if start + r <= config.horizon
        ),
        sum_rho=sum_rho,
        digest=hashlib.sha256(digest.encode("ascii")).hexdigest(),
    )


def reference_run(config, sched, policy_stream=None):
    """The per-event online run: one ``sample`` per event, atoms take none."""
    if policy_stream is None:
        policy_stream = stream(config.seed, "policy")
    strategies, outcomes = {}, []
    for _, thr, k, y, idx, _, b_cost in sched.events.tolist():
        if (k, b_cost) not in strategies:
            strategies[k, b_cost] = make_strategy(StrategySpec(
                config.mode, k, b_cost, config.policy.variant, mu=config.policy.mu
            ))
        x = strategies[k, b_cost].sample(policy_stream)
        if y < x:
            outcomes.append(((thr, idx), True, (k - 1) * y))
        elif config.policy.variant is Variant.DISCRETE_CLASSIC:  # day x granted x - 1 days
            outcomes.append(((thr, idx), False, x - 1.0 + b_cost))
        elif config.mode is RW:
            outcomes.append(((thr, idx), False, k * x + b_cost))
        else:
            outcomes.append(((thr, idx), False, (k - 1) * (x + b_cost)))
    return reference_tally(config, sched, outcomes)


def reference_offline(config, sched):
    outcomes = []
    for _, thr, k, y, idx, _, b_cost in sched.events.tolist():
        wait = (k - 1) * y
        outcomes.append(((thr, idx), True, wait) if wait <= b_cost else ((thr, idx), False, b_cost))
    return reference_tally(config, sched, outcomes)


def reference_tally(config, sched, outcomes):
    """``outcomes`` holds ``((thread, tx_index), committed, extra)`` per event."""
    attempts, sum_extra, commits = {}, 0.0, 0
    for tx, commit, extra in outcomes:
        if commit:
            commits += 1
        elif config.mode is RW:
            attempts[tx] = attempts.get(tx, 1) + 1
        sum_extra += extra
    hist = {}
    if sched.n_transactions > len(attempts):
        hist[1] = sched.n_transactions - len(attempts)
    for a in attempts.values():
        hist[a] = hist.get(a, 0) + 1
    return SimMetrics(
        n_transactions=sched.n_transactions,
        transactions_committed=sched.transactions_committed,
        n_conflicts=len(sched.events),
        commit_branches=commits,
        abort_branches=len(sched.events) - commits,
        sum_rho=sched.sum_rho,
        sum_extra=sum_extra,
        sum_gamma=sched.sum_rho + sum_extra,
        waste=sum_extra / sched.sum_rho,
        attempts_hist=hist,
        schedule_digest=sched.digest,
    )


def bundled_config(name, seed):
    raw = resources.files("graceperiod").joinpath("configs", name).read_text()
    return replace(config_from_dict(json.loads(raw)), seed=seed)


def parity_cases(tmp_path):
    """``(name, config)`` pairs the array passes must match the reference on."""
    cases = [
        (f"{name} seed {seed}", bundled_config(name, seed))
        for name in ("stress_high.json", "stress_low.json") for seed in (1, 7)
    ]
    cases += [
        (kind, base_config(length_model=AdversaryModel(kind, 20.0)))
        for kind in KINDS
    ]
    cases += [
        # 13% of the (u1, u2) pairs are accepted: most lengths take several pairs
        ("wide normal_truncated", base_config(
            length_model=AdversaryModel("normal_truncated", 20.0, sigma=40.0))),
        ("chain sizes", base_config(chain_size={2: 0.2, 3: 0.5, 5: 0.3}, conflict_rate=1.0)),
        ("rate 0", base_config(conflict_rate=0.0)),
        # np.log and math.log differ in the last bit on this seed's first gap
        ("last-bit gap", base_config(seed=465)),
        ("horizon below one mean length", base_config(horizon=5.0)),
        ("trace", micro_trace_config(tmp_path, MICRO_TRACE)),
        ("trace, dynamic_b", micro_trace_config(
            tmp_path, "0 0 2\n70 1 3\n", dynamic_b=True, cleanup_cost=5.0)),
    ]
    return cases + [(name, config) for name, config, _ in engine_cases()]


def drawing_events(config, sched):
    return sum(
        make_strategy(StrategySpec(
            config.mode, k, b_cost, config.policy.variant, mu=config.policy.mu
        )).kind is not StrategyKind.ATOM
        for k, b_cost in sched.events[["k", "b_cost"]].tolist()
    )


class TestScalarReference:
    def test_schedules_and_runs_match_the_scalar_reference(self, tmp_path):
        for name, config in parity_cases(tmp_path):
            sched = build_schedule(config)
            assert_same_schedule(sched, reference_build_schedule(config), name)
            assert_same_lengths(config, name)
            assert run(config, sched) == reference_run(config, sched), name
            assert run_offline_baseline(config, sched) == reference_offline(config, sched), name

    def test_refilled_blocks_and_small_chunks_match(self, monkeypatch):
        # blocks of a few draws and replay chunks of a few cells make every
        # schedule refill its streams and every replay walk many chunks
        monkeypatch.setattr(simulator, "_BLOCK_MAX", 5)
        monkeypatch.setattr(simulator, "_CHUNK_CELLS", 7)
        for name, config, _ in engine_cases():
            sched = build_schedule(config)
            assert_same_schedule(sched, reference_build_schedule(config), name)
            assert_same_lengths(config, name)
            assert run(config, sched) == reference_run(config, sched), name
            offline = run_offline_baseline(config, sched)
            ratios, _ = throughput_campaign(config, 3, sched, offline)
            assert np.array_equal(
                ratios, reference_campaign_ratios(config, sched, offline, 3)
            ), name

    def test_many_threads_build_in_bounded_time(self):
        # 512 receivers over a long horizon: 160k candidates in three blocks.
        # Only admitted candidates are located, one bisection each, so the build
        # stays linear in the candidates (under a second on two cores).
        config = base_config(n_threads=512, horizon=2e4, conflict_rate=8.0)
        began = time.perf_counter()
        sched = build_schedule(config)
        assert time.perf_counter() - began < 20.0
        assert len(set(sched.events["thread"].tolist())) == 512
        rho = [simulator._draw_lengths(config, i)[1].tolist() for i in range(512)]
        starts = [list(accumulate(rs, initial=0.0)) for rs in rho]
        for t, thr, _, y, tx_index, elapsed, _ in sched.events.tolist():
            idx = bisect_right(starts[thr], t) - 1
            assert (tx_index, elapsed) == (idx, t - starts[thr][idx])
            assert y == rho[thr][idx] - elapsed

    def test_run_takes_one_draw_per_non_atom_event(self):
        for name, config, _ in engine_cases():
            sched = build_schedule(config)
            used = stream(config.seed, "policy")
            run(config, sched, policy_stream=used)
            expected = stream(config.seed, "policy")
            expected.uniform_batch(drawing_events(config, sched))
            assert used.u64() == expected.u64(), name
        atom = next(config for name, config, _ in engine_cases() if name == "atom")
        assert drawing_events(atom, build_schedule(atom)) == 0


def exact_progress(y, gamma, k, B, attempts) -> Fraction:
    """``1 - prod_{a<=N}(1 - s_a)`` in rational arithmetic."""
    miss = Fraction(1)
    for a in range(attempts):
        t = (k - 1) * Fraction(y) / (Fraction(B) * 2**a)
        miss *= 1 - max(Fraction(0), 1 - t) ** gamma
    return 1 - miss


def reference_progress_commits(y, gamma, k, B, n_trials, seed, attempts) -> np.ndarray:
    """Per trial, whether it commits within ``attempts``: each trial draws
    ``gamma`` scalar uniforms of its own stream at every attempt."""
    commits = []
    for trial in range(n_trials):
        s = stream(seed, "progress", trial)
        ok = False
        for a in range(attempts):
            graces = [(s.u64() >> 11) * 2**-53 * (B * 2.0**a / (k - 1)) for _ in range(gamma)]
            ok = ok or all(x > y for x in graces)
        commits.append(ok)
    return np.array(commits)


# (y, gamma, k, B): the acceptance case, k >= 3, B not a power of two,
# gamma = 0, and a bound of one attempt
PROGRESS_CASES = [
    (64.0, 4, 2, 1.0), (64.0, 4, 3, 1.0), (10.0, 3, 5, 3.7), (64.0, 0, 2, 1.0),
    (1000.0, 7, 4, 0.3), (0.01, 2, 2, 100.0), (123.456, 9, 7, 0.77),
]


class TestProgress:
    def test_gamma_zero_commits_first_attempt(self):
        res = progress_check(y=64.0, gamma=0, k=2, B=1.0)
        assert res.probability == 1.0 and res.passed

    def test_acceptance_case_is_exact(self):
        res = progress_check(y=64.0, gamma=4, k=2, B=1.0)
        assert exact_progress(64.0, 4, 2, 1.0, 11) == Fraction(1033166997151, 1099511627776)
        assert res.probability == 0.9396599099554805

    @pytest.mark.parametrize("case", PROGRESS_CASES)
    def test_probability_matches_rational_arithmetic(self, case):
        res = progress_check(*case)
        exact = float(exact_progress(*case, res.bound_attempts))
        assert abs(res.probability - exact) <= 1e-15 * exact
        assert res.passed == (res.probability >= 0.5 and res.doubling_assert_ok)

    @pytest.mark.parametrize("case", PROGRESS_CASES)
    def test_sampled_probability_within_4_sigma(self, case):
        # the scalar-stream replay of the trials agrees with the closed form
        res = progress_check(*case)
        p, n = res.probability, 2000
        sigma = math.sqrt(p * (1.0 - p) / n)
        for seed in (1, 2, 606):
            commits = reference_progress_commits(*case, n, seed, res.bound_attempts)
            assert abs(float(np.mean(commits)) - p) <= 4.0 * sigma, seed

    def test_doubling_assert_is_the_identity(self):
        for y, gamma, k, B in PROGRESS_CASES:
            res = progress_check(y, gamma, k, B)
            t = res.doubling_threshold
            assert res.doubling_assert_ok == (t == 0 or B * 2.0**t >= 2.0 * k * y * gamma)

    @pytest.mark.parametrize("arg, bad", [
        ("y", 0.0), ("y", -1.0), ("y", math.inf), ("y", math.nan),
        ("k", 1), ("k", 2.5), ("B", 0.0), ("B", math.inf),
        ("gamma", -1), ("gamma", 1.5), ("gamma", math.inf), ("gamma", math.nan),
    ])
    def test_bad_arguments_rejected(self, arg, bad):
        args = dict(y=64.0, gamma=4, k=2, B=1.0)
        args[arg] = bad
        with pytest.raises(ValueError, match=rf"\b{arg}\b"):
            progress_check(**args)

    def test_reference_parameters(self):
        res = progress_check(y=64.0, gamma=4, k=2, B=1.0)
        assert res.bound_attempts == 11
        assert res.doubling_threshold == 10
        assert res.doubling_assert_ok
        assert res.passed

    def test_doubled_cost_reaches_2kyg(self):
        # after ceil(log2 y + log2 g + log2 k - log2 B + 1) doublings
        y, gamma, k, B = 64.0, 4, 2, 1.0
        a = math.ceil(math.log2(y) + math.log2(gamma) + math.log2(k) - math.log2(B) + 1)
        assert B * 2.0 ** a >= 2 * k * y * gamma


CONFIG_DATA = {
    "n_threads": 4, "mode": "requestor_wins",
    "policy": {"variant": "randomized_unconstrained", "B": 100.0},
    "length_model": {"kind": "exponential", "mean": 20.0},
    "conflict_schedule": {"kind": "random_rate", "rate": 0.1},
    "horizon": 500.0, "seed": 3,
}


class TestConfigParsing:
    def test_round_trip(self):
        data = {
            "n_threads": 4, "mode": "requestor_wins",
            "policy": {"variant": "randomized_unconstrained", "B": 100.0},
            "length_model": {"kind": "exponential", "mean": 20.0},
            "conflict_schedule": {"kind": "random_rate", "rate": 0.1},
            "horizon": 500.0, "seed": 3,
        }
        config = config_from_dict(data)
        assert config.n_threads == 4
        assert config.conflict_rate == 0.1
        run(config, build_schedule(config))  # executes cleanly

    def test_field_diagnostics(self):
        with pytest.raises(ValueError, match="'n_threads'"):
            config_from_dict({
                "mode": "requestor_wins",
                "policy": {"variant": "randomized_unconstrained", "B": 10.0},
                "length_model": {"kind": "exponential", "mean": 5.0},
                "conflict_schedule": {"kind": "random_rate", "rate": 0.0},
                "horizon": 10.0, "seed": 1,
            })
        with pytest.raises(ValueError, match="'mode'"):
            config_from_dict({"n_threads": 2, "mode": "bogus"})
        with pytest.raises(ValueError, match="policy"):
            config_from_dict({
                "n_threads": 2, "mode": "requestor_wins", "policy": {"variant": "x"},
                "length_model": {"kind": "exponential", "mean": 5.0},
                "conflict_schedule": {"kind": "random_rate", "rate": 0.0},
                "horizon": 10.0, "seed": 1,
            })
        with pytest.raises(ValueError, match="conflict_schedule"):
            config_from_dict({
                "n_threads": 2, "mode": "requestor_wins",
                "policy": {"variant": "randomized_unconstrained", "B": 10.0},
                "length_model": {"kind": "exponential", "mean": 5.0},
                "conflict_schedule": {"kind": "nope"},
                "horizon": 10.0, "seed": 1,
            })

    @pytest.mark.parametrize("field, data", [
        ("doubling_backof", dict(CONFIG_DATA, doubling_backof=True)),
        ("policy.Bee", dict(CONFIG_DATA, policy={
            "variant": "randomized_unconstrained", "B": 100.0, "Bee": 100.0})),
        ("length_model.meen", dict(CONFIG_DATA, length_model={
            "kind": "exponential", "mean": 20.0, "meen": 20.0})),
        # each schedule kind reads its own fields only
        ("conflict_schedule.path", dict(CONFIG_DATA, conflict_schedule={
            "kind": "random_rate", "rate": 0.1, "path": "t.txt"})),
        ("conflict_schedule.rate", dict(CONFIG_DATA, conflict_schedule={
            "kind": "trace", "path": "t.txt", "rate": 0.1})),
    ], ids=["top", "policy", "length_model", "random_rate", "trace"])
    def test_unknown_field_rejected(self, field, data):
        # a misspelled key used to parse, and its setting was silently dropped
        with pytest.raises(ValueError, match=f"config field '{field}' is not a known field"):
            config_from_dict(data)

    def test_infinite_rate_rejected(self):
        # an infinite rate never advances the conflict clock
        with pytest.raises(ValueError, match="conflict_rate"):
            config_from_dict(dict(CONFIG_DATA, conflict_schedule={
                "kind": "random_rate", "rate": float("inf")}))

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="conflict_rate"):
            config_from_dict(dict(CONFIG_DATA, conflict_schedule={
                "kind": "random_rate", "rate": float("nan")}))

    def test_nan_cleanup_cost_rejected(self):
        with pytest.raises(ValueError, match="cleanup_cost"):
            config_from_dict(dict(CONFIG_DATA, cleanup_cost=float("nan")))

    def test_cleanup_cost_past_the_abort_cost_range_rejected(self):
        # every elapsed time is below the horizon, so cleanup_cost + horizon
        # bounds each dynamic abort cost; 1e300 used to pass here and fail in
        # the replay with an error that named no field
        data = dict(CONFIG_DATA, dynamic_b=True, cleanup_cost=1e300)
        with pytest.raises(ValueError, match=r"cleanup_cost 1e\+300 plus horizon 500.0 exceeds"):
            config_from_dict(data)
        data["cleanup_cost"] = 1e250 - 500.0  # rounds to 1e250: the sum is in range
        assert config_from_dict(data).cleanup_cost == 1e250

    def test_truncated_normal_with_little_mass_above_zero_rejected(self):
        # it used to parse, and only the first length draw in build_schedule
        # rejected it, with an error that named no field
        data = dict(CONFIG_DATA, length_model={"kind": "normal_truncated", "mean": 1.0,
                                               "sigma": 3.0})
        with pytest.raises(ValueError, match=r"config field 'length_model.sigma': .* under 1%"):
            config_from_dict(data)
        data["length_model"]["sigma"] = 0.9
        assert config_from_dict(data).length_model.sigma == 0.9

    def test_cleanup_cost_needs_dynamic_b(self):
        # it used to parse and go unread: every abort cost stayed policy.B
        with pytest.raises(ValueError, match="cleanup_cost is read by dynamic_b only"):
            config_from_dict(dict(CONFIG_DATA, cleanup_cost=50.0))
        assert config_from_dict(dict(CONFIG_DATA, cleanup_cost=0.0)).cleanup_cost == 0.0
        dynamic = config_from_dict(dict(CONFIG_DATA, cleanup_cost=50.0, dynamic_b=True))
        assert dynamic.cleanup_cost == 50.0

    def test_integer_past_the_float_range(self):
        # 10**400 raised an OverflowError that named no field
        with pytest.raises(ValueError, match="horizon must be positive, got -inf"):
            config_from_dict(dict(CONFIG_DATA, horizon=-10**400))
        with pytest.raises(ValueError, match="chain size k must be an integer >= 2"):
            config_from_dict(dict(CONFIG_DATA, chain_size=10**400))
        assert config_from_dict(dict(CONFIG_DATA, seed=10**400)).seed == 10**400

    def test_fractional_seed_rejected(self):
        # 1.7 used to run silently as seed 1
        with pytest.raises(ValueError, match="'seed'"):
            config_from_dict(dict(CONFIG_DATA, seed=1.7))
        assert config_from_dict(dict(CONFIG_DATA, seed=7.0)).seed == 7

    def test_fractional_n_threads_rejected(self):
        with pytest.raises(ValueError, match="'n_threads'"):
            config_from_dict(dict(CONFIG_DATA, n_threads=2.5))

    def test_fractional_chain_size_rejected(self):
        with pytest.raises(ValueError, match="'chain_size'"):
            config_from_dict(dict(CONFIG_DATA, chain_size=2.5))

    def test_fractional_chain_size_key_rejected(self):
        with pytest.raises(ValueError, match="'chain_size'"):
            config_from_dict(dict(CONFIG_DATA, chain_size={"2": 0.5, "3.5": 0.5}))
        config = config_from_dict(dict(CONFIG_DATA, chain_size={"2": 0.5, "3": 0.5}))
        assert config.chain_size == {2: 0.5, 3: 0.5}

    def test_all_zero_chain_weights_rejected(self):
        with pytest.raises(ValueError, match="chain_size"):
            config_from_dict(dict(CONFIG_DATA, chain_size={"2": 0.0, "3": 0.0}))

    def test_discrete_classic_with_a_larger_chain_size_rejected(self):
        data = dict(CONFIG_DATA, mode="requestor_aborts", chain_size={"2": 0.5, "3": 0.5},
                    policy={"variant": "discrete_classic", "B": 100.0})
        with pytest.raises(ValueError, match="policy.variant discrete_classic with chain_size 3"):
            config_from_dict(data)
        data["chain_size"] = {"2": 1.0}
        assert config_from_dict(data).chain_size == {2: 1.0}

    def test_constrained_policy_without_mu_rejected(self):
        data = dict(CONFIG_DATA, policy={"variant": "randomized_constrained", "B": 100.0})
        with pytest.raises(ValueError, match="policy.mu None.*requires a known mean mu"):
            config_from_dict(data)

    def test_deterministic_requestor_aborts_rejected(self):
        # at rate 0 no conflict is ever drawn, and the config used to pass
        data = dict(CONFIG_DATA, mode="requestor_aborts",
                    policy={"variant": "deterministic", "B": 100.0},
                    conflict_schedule={"kind": "random_rate", "rate": 0.0})
        with pytest.raises(ValueError, match="policy.variant deterministic .*requestor_wins only"):
            config_from_dict(data)

    def test_discrete_classic_abort_cost_is_bounded(self, monkeypatch):
        monkeypatch.setattr(strategy_module, "_discrete_classic_pmf", None)
        data = dict(CONFIG_DATA, mode="requestor_aborts",
                    policy={"variant": "discrete_classic", "B": 1e10})
        with pytest.raises(ValueError, match="policy.variant discrete_classic .*B <= 1e\\+06"):
            config_from_dict(data)
        data["policy"] = {"variant": "discrete_classic", "B": 10000.0}
        assert config_from_dict(data).policy.B == 10000.0

    def test_discrete_classic_with_dynamic_b_rejected(self):
        data = dict(CONFIG_DATA, mode="requestor_aborts", dynamic_b=True,
                    policy={"variant": "discrete_classic", "B": 100.0})
        with pytest.raises(ValueError, match="policy.variant discrete_classic .*dynamic_b"):
            config_from_dict(data)
        del data["dynamic_b"]
        assert config_from_dict(data).policy.variant is Variant.DISCRETE_CLASSIC

    def test_nan_chain_weight_rejected(self):
        with pytest.raises(ValueError, match="chain_size"):
            config_from_dict(dict(CONFIG_DATA, chain_size={"2": 1.0, "3": float("nan")}))
