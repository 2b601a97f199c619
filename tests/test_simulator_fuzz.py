"""Differential fuzz of the array engines against the scalar references.

Hypothesis draws small valid ``SimConfig``s over both modes, every variant
(mean-aware and the discrete classic included), single and mixed chain
sizes, ``dynamic_b`` with a cleanup cost, doubling backoff and every length
kind.  For each, ``build_schedule``, ``run``, ``run_offline_baseline`` and a
3-seed ``throughput_campaign`` must equal the one-draw-at-a-time references
of ``test_simulator.py`` bit for bit, at the module's block and tile sizes
and again with both shrunk to a few draws and cells.  Shrunk, a run's tiles
and the 3-seed campaign's hold rows of several ``(family, k)`` groups, and a
campaign of more seeds than a tile's cells splits each event's row of lanes.
The search is derandomized, so the suite stays deterministic.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graceperiod import simulator
from graceperiod.adversary import KINDS, AdversaryModel
from graceperiod.simulator import (
    PolicyConfig,
    SimConfig,
    build_schedule,
    run,
    run_offline_baseline,
    throughput_campaign,
)
from graceperiod.strategy import ConflictMode, Variant, make_strategy, mean_threshold
from test_simulator import (
    assert_same_schedule,
    reference_build_schedule,
    reference_campaign_ratios,
    reference_offline,
    reference_run,
)

CAMPAIGN_SEEDS = 3
# schedule blocks of a few draws and replay tiles of a few cells, fewer than
# SPLIT_SEEDS lanes
SHRUNK = {"_BLOCK_MAX": 5, "_CHUNK_CELLS": 7}
SPLIT_SEEDS = 9


@st.composite
def length_models(draw, kind):
    low = 1.5 if kind in ("geometric", "poisson") else 0.5
    mean = draw(st.floats(low, 40.0))
    if kind == "point_mass":
        return AdversaryModel(kind, mean, value=mean)
    sigma = None
    if kind == "normal_truncated" and draw(st.booleans()):
        # up to twice the mean: wider leaves too little mass above zero to sample
        sigma = mean * draw(st.floats(0.05, 2.0))
    return AdversaryModel(kind, mean, sigma)


# every legal (variant, mode) pair, each searched on its own with every length kind
POLICIES = [
    (Variant.DETERMINISTIC, ConflictMode.REQUESTOR_WINS),
    (Variant.DISCRETE_CLASSIC, ConflictMode.REQUESTOR_ABORTS),
    *((variant, mode) for variant in (
        Variant.RANDOMIZED_UNCONSTRAINED, Variant.RANDOMIZED_CONSTRAINED
    ) for mode in ConflictMode),
]


@st.composite
def sim_configs(draw, variant, mode, kind, dynamic_b=None):
    if variant is Variant.DISCRETE_CLASSIC:
        # k = 2 and integer abort costs, so no dynamic_b
        B = float(draw(st.integers(1, 150)))
        sizes = [2]
        dynamic_b = False
    else:
        B = draw(st.floats(0.5, 150.0))
        sizes = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True))
        dynamic_b = draw(st.booleans()) if dynamic_b is None else dynamic_b
    # below and above the mean threshold (0.77B and 0.84B at k = 2), so both the
    # mean-aware density and its unconstrained fallback are drawn
    mu = B * draw(st.floats(0.0, 2.0)) if variant is Variant.RANDOMIZED_CONSTRAINED else None
    if len(sizes) == 1 and draw(st.booleans()):
        chain_size = sizes[0]
    else:
        chain_size = {k: draw(st.floats(0.05, 1.0)) for k in sizes}
    return SimConfig(
        n_threads=draw(st.integers(1, 6)),
        mode=mode,
        policy=PolicyConfig(variant, B, mu),
        length_model=draw(length_models(kind)),
        # each second range keeps most schedules nonempty; the first still
        # reaches the edges, such as a subnormal rate
        horizon=draw(st.floats(1.0, 300.0) | st.floats(100.0, 300.0)),
        seed=draw(st.integers(0, 2**32)),
        conflict_rate=draw(st.floats(0.0, 1.5) | st.floats(0.1, 1.5)),
        chain_size=chain_size,
        cleanup_cost=draw(st.floats(0.0, 20.0)) if dynamic_b else 0.0,
        dynamic_b=dynamic_b,
        doubling_backoff=draw(st.booleans()),
    )


def assert_engines_match_references(config, seed_counts):
    sched = build_schedule(config)
    assert_same_schedule(sched, reference_build_schedule(config))
    assert run(config, sched) == reference_run(config, sched)
    offline = run_offline_baseline(config, sched)
    assert offline == reference_offline(config, sched)
    # seed i draws from its own stream, whatever the number of seeds
    expected = reference_campaign_ratios(config, sched, offline, max(seed_counts))
    for n_seeds in seed_counts:
        ratios, _ = throughput_campaign(config, n_seeds, sched, offline)
        assert np.array_equal(ratios, expected[:n_seeds])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant, mode", POLICIES, ids=lambda p: p.value)
@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_array_engines_equal_scalar_references(variant, mode, kind, data):
    config = data.draw(sim_configs(variant, mode, kind))
    assert_engines_match_references(config, [CAMPAIGN_SEEDS])
    with mock.patch.multiple(simulator, **SHRUNK):
        assert_engines_match_references(config, [CAMPAIGN_SEEDS, SPLIT_SEEDS])


@pytest.mark.parametrize("mode", list(ConflictMode), ids=lambda m: m.value)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_vector_families_equal_make_strategy_across_the_mean_threshold(mode, data):
    # dynamic_b gives every event its own B, so its own mean_threshold; mu
    # halfway between the lowest and the highest puts events on both sides
    config = data.draw(sim_configs(Variant.RANDOMIZED_CONSTRAINED, mode, "exponential", True))
    sched = build_schedule(config)  # the policy's mu does not enter the schedule
    pairs = sched.events[["k", "b_cost"]].tolist()
    bounds = [mean_threshold(mode, k, b) for k, b in pairs]
    if bounds:
        mu = 0.5 * (min(bounds) + max(bounds))
        config = replace(config, policy=replace(config.policy, mu=mu))
    strategies, code = simulator._groups(config, sched.events["k"], sched.events["b_cost"])
    want = [make_strategy(config.policy_spec(k, b)) for k, b in pairs]
    assert [strategies[g].family for g in code.tolist()] == [s.family for s in want]
    if min(bounds, default=0.0) < max(bounds, default=0.0):
        assert {s.mean_aware for s in want} == {True, False}
