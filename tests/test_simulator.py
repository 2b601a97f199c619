import json
import math
from importlib import resources

import numpy as np
import pytest

from graceperiod.adversary import AdversaryModel
from graceperiod.costmodel import ConflictInstance, expected_cost, opt_cost
from graceperiod.rng import stream
from graceperiod.simulator import (
    PolicyConfig,
    SimConfig,
    TraceError,
    build_schedule,
    config_from_dict,
    progress_check,
    run,
    run_offline_baseline,
    simulate_pair,
    throughput_bound_check,
    throughput_campaign,
)
from graceperiod.strategy import ConflictMode, StrategySpec, Variant, make_strategy

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


class TestSchedule:
    def test_zero_rate_is_conflict_free(self):
        config = base_config(conflict_rate=0.0)
        online, offline, check = simulate_pair(config)
        assert online.n_conflicts == 0
        assert online.waste == 0.0
        assert online.global_ratio == 1.0
        assert online.sum_gamma == online.sum_rho
        assert check.rhs == 1.0 and check.lhs == 1.0

    def test_exclusion_window_keeps_receivers_clear(self):
        config = base_config(conflict_rate=5.0)  # heavy thinning
        sched = build_schedule(config)
        last_allowed = {}
        for ev in sched.events:
            if ev.thread in last_allowed:
                assert ev.time >= last_allowed[ev.thread]
            if (ev.k - 1) * ev.y <= ev.b_cost:
                window = max(ev.y, ev.b_cost / (ev.k - 1))
            else:
                window = ev.b_cost / (ev.k - 1)  # abort forced in both runs
            last_allowed[ev.thread] = ev.time + window

    def test_pegged_remaining_time_is_consistent(self):
        sched = build_schedule(base_config())
        for ev in sched.events:
            rho = sched.rho[ev.thread][ev.tx_index]
            assert 0.0 < ev.y <= rho + 1e-12
            assert ev.elapsed == pytest.approx(rho - ev.y, rel=1e-9, abs=1e-9)

    def test_chain_size_distribution(self):
        config = base_config(chain_size={2: 0.5, 4: 0.5}, conflict_rate=1.0)
        sched = build_schedule(config)
        ks = {ev.k for ev in sched.events}
        assert ks <= {2, 4} and len(ks) == 2


class TestMicroTrace:
    def test_offline_waste_matches_hand_computation(self, tmp_path):
        config = micro_trace_config(tmp_path, MICRO_TRACE)
        sched = build_schedule(config)
        assert [(e.time, e.thread, e.k) for e in sched.events] == [
            (10.0, 0, 2), (70.0, 1, 2), (130.0, 0, 3)
        ]
        assert [e.y for e in sched.events] == [40.0, 30.0, 20.0]
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
        offline = run_offline_baseline(config)
        # y = 40 > B = 25: immediate abort at cost B
        assert offline.abort_branches == 1
        assert offline.sum_extra == pytest.approx(25.0)

    def test_trace_entry_during_grace_window_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="grace window"):
            build_schedule(micro_trace_config(tmp_path, "10 0 2\n50 0 2\n"))

    def test_dynamic_b_zero_abort_cost_rejected(self, tmp_path):
        # dynamic_b charges elapsed + cleanup_cost, which is 0 at a
        # transaction's start when cleanup_cost is 0
        config = micro_trace_config(tmp_path, "0 0 2\n", dynamic_b=True)
        with pytest.raises(TraceError, match=r"entry 1: .*dynamic_b.*cleanup_cost"):
            build_schedule(config)
        config = micro_trace_config(tmp_path, "0 0 2\n", dynamic_b=True, cleanup_cost=5.0)
        assert [e.b_cost for e in build_schedule(config).events] == [5.0]

    def test_trace_descending_times_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="nondecreasing"):
            build_schedule(micro_trace_config(tmp_path, "10 0 2\n5 1 2\n"))

    def test_online_mean_extra_matches_closed_form(self, tmp_path):
        # one conflict, k = 2, y = 40 <= B: the uniform policy's expected
        # extra equals 2y; check the Monte-Carlo mean over many policy seeds
        config = micro_trace_config(tmp_path, "10 0 2\n")
        sched = build_schedule(config)
        extras = np.array([
            run(config, sched, policy_stream=stream(config.seed, "mc", i)).sum_extra
            for i in range(10_000)
        ])
        stderr = extras.std(ddof=1) / math.sqrt(len(extras))
        assert abs(extras.mean() - 2.0 * 40.0) <= 3.0 * stderr
        offline = run_offline_baseline(config, sched)
        assert extras.mean() <= 2.0 * offline.sum_extra + 3.0 * stderr

    def test_trace_bad_fields_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="expected"):
            build_schedule(micro_trace_config(tmp_path, "10 0\n"))
        with pytest.raises(TraceError, match="out of range"):
            build_schedule(micro_trace_config(tmp_path, "10 7 2\n"))
        with pytest.raises(TraceError, match="chain size"):
            build_schedule(micro_trace_config(tmp_path, "10 0 1\n"))


class TestRunInvariants:
    def test_determinism_bit_identical(self):
        config = base_config()
        assert run(config) == run(config)
        assert run_offline_baseline(config) == run_offline_baseline(config)

    def test_schedule_parity(self):
        config = base_config()
        online, offline, _ = simulate_pair(config)
        assert online.schedule_digest == offline.schedule_digest
        assert online.n_conflicts == offline.n_conflicts
        assert online.n_transactions == offline.n_transactions
        assert online.sum_rho == offline.sum_rho

    def test_conservation_is_exact(self):
        for rate in (0.05, 0.5):
            config = base_config(conflict_rate=rate)
            for metrics in (run(config), run_offline_baseline(config)):
                assert metrics.sum_gamma == metrics.sum_rho + metrics.sum_extra

    def test_per_conflict_dominance(self):
        # each conflict's expected online cost stays within the competitive
        # ratio of the offline cost (flat at exactly 2 for the uniform policy)
        config = base_config()
        sched = build_schedule(config)
        strat = make_strategy(StrategySpec(RW, 2, 100.0, Variant.RANDOMIZED_UNCONSTRAINED))
        for ev in sched.events:
            inst = ConflictInstance(RW, ev.k, 100.0, ev.y)
            assert expected_cost(strat, inst) <= 2.0 * opt_cost(inst) * (1 + 1e-9)

    def test_offline_extra_equals_sum_of_optima(self):
        config = base_config()
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        expected = sum(
            opt_cost(ConflictInstance(RW, ev.k, 100.0, ev.y)) for ev in sched.events
        )
        assert offline.sum_extra == pytest.approx(expected, rel=1e-12)

    def test_online_never_beats_offline(self):
        # per conflict the online extra dominates min((k-1)y, B), so the
        # global ratio cannot fall below one
        for seed in (404, 405, 406):
            online, offline, _ = simulate_pair(base_config(seed=seed))
            assert online.sum_extra >= offline.sum_extra
            assert online.global_ratio >= 1.0

    def test_attempts_histogram_counts_transactions(self):
        config = base_config()
        metrics = run(config)
        assert sum(metrics.attempts_hist.values()) == metrics.n_transactions
        assert (
            sum((a - 1) * c for a, c in metrics.attempts_hist.items())
            == metrics.abort_branches
        )

    def test_ra_receiver_never_restarts(self):
        config = base_config(mode=RA)
        metrics = run(config)
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
        assert [e.b_cost for e in sched.events] == [4.0, 8.0]
        assert sched.backoff_mults == (((0, 0), 4.0),)
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
        assert [e.b_cost for e in sched.events] == [4.0, 4.0]

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
        metrics = run(config)
        # elapsed = 10, cleanup = 5 -> B = 15, det grace x = 15 < y = 40: abort
        assert metrics.abort_branches == 1
        assert metrics.sum_extra == pytest.approx(2 * 15.0 + 15.0)


class TestThroughputBound:
    def test_bound_check_requires_matching_schedules(self):
        m1 = run(base_config())
        m2 = run_offline_baseline(base_config(seed=405))
        with pytest.raises(ValueError):
            throughput_bound_check(m1, m2)

    def test_campaign_bound_holds(self):
        ratios, offline, check = throughput_campaign(base_config(), 400)
        assert check.passed
        assert check.lhs < 2.0
        assert check.rhs < 2.0
        assert 0 < offline.waste

    def test_campaign_matches_individual_runs(self):
        config = base_config()
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        ratios, _, _ = throughput_campaign(config, 5)
        for i in range(5):
            m = run(config, sched, policy_stream=stream(config.seed, "campaign", i))
            assert ratios[i] == m.sum_gamma / offline.sum_gamma

    def test_campaign_reuses_given_schedule_and_baseline(self):
        config = base_config()
        sched = build_schedule(config)
        offline = run_offline_baseline(config, sched)
        ratios, got_offline, check = throughput_campaign(
            config, 30, schedule=sched, offline=offline
        )
        assert got_offline is offline
        assert np.array_equal(ratios, throughput_campaign(config, 30)[0])
        assert check == throughput_campaign(config, 30)[2]
        assert simulate_pair(config, sched, offline) == simulate_pair(config)

    def test_baseline_of_another_schedule_rejected(self):
        sched = build_schedule(base_config())
        other = run_offline_baseline(base_config(seed=405))
        with pytest.raises(ValueError, match="offline baseline"):
            throughput_campaign(base_config(), 10, schedule=sched, offline=other)
        with pytest.raises(ValueError, match="offline baseline"):
            simulate_pair(base_config(), sched, other)

    def test_campaign_rejects_no_seeds(self):
        for n_seeds in (0, -3):
            with pytest.raises(ValueError, match="n_seeds"):
                throughput_campaign(base_config(), n_seeds)

    def test_campaign_engine_matches_per_seed_reference(self):
        for name, config, families in engine_cases():
            sched = build_schedule(config)
            offline = run_offline_baseline(config, sched)
            assert sched.events, name
            assert bool(sched.backoff_mults) == config.doubling_backoff, name
            assert policy_families(config, sched) == families, name
            ratios, _, _ = throughput_campaign(config, ENGINE_SEEDS)
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
            config.mode, ev.k, ev.b_cost, config.policy.variant, mu=config.policy.mu
        )).family
        for ev in sched.events
    }


def reference_campaign_ratios(config, sched, offline, n_seeds):
    """The per-seed scalar replay: one stream per seed, one ``sample`` per event."""
    ratios = []
    for i in range(n_seeds):
        policy_stream = stream(config.seed, "campaign", i)
        strategies = {}
        sum_extra = 0.0
        for ev in sched.events:
            key = (ev.k, ev.b_cost)
            if key not in strategies:
                strategies[key] = make_strategy(StrategySpec(
                    config.mode, ev.k, ev.b_cost, config.policy.variant,
                    mu=config.policy.mu,
                ))
            x = strategies[key].sample(policy_stream)
            if ev.y < x:
                extra = (ev.k - 1) * ev.y
            elif config.mode is RW:
                extra = ev.k * x + ev.b_cost
            else:
                extra = (ev.k - 1) * (x + ev.b_cost)
            sum_extra += extra
        ratios.append((sched.sum_rho + sum_extra) / offline.sum_gamma)
    return np.array(ratios)


class TestProgress:
    def test_gamma_zero_commits_first_attempt(self):
        res = progress_check(y=64.0, gamma=0, k=2, B=1.0, n_trials=10, seed=1)
        assert res.empirical_probability == 1.0 and res.passed

    def test_reference_parameters(self):
        res = progress_check(y=64.0, gamma=4, k=2, B=1.0, n_trials=1000, seed=2)
        assert res.bound_attempts == 11
        assert res.doubling_threshold == 10
        assert res.doubling_assert_ok
        assert res.empirical_probability >= 0.5 - 3.0 * res.stderr
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
        run(config)  # executes cleanly

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

    def test_nan_chain_weight_rejected(self):
        with pytest.raises(ValueError, match="chain_size"):
            config_from_dict(dict(CONFIG_DATA, chain_size={"2": 1.0, "3": float("nan")}))
