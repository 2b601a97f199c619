"""Fuzz of every config and trace reader.

Each input, JSON-like values under known and random keys, must either
parse or raise a ValueError (a TraceError for traces) that names a field or
a line, and it must do so within hypothesis's deadline.
"""

import copy
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graceperiod import bench
from graceperiod.config import quote
from graceperiod.simulator import SimConfig, TraceError, config_from_dict, parse_trace

SIM_BASE = {
    "n_threads": 4, "mode": "requestor_wins",
    "policy": {"variant": "randomized_unconstrained", "B": 100.0},
    "length_model": {"kind": "exponential", "mean": 20.0},
    "conflict_schedule": {"kind": "random_rate", "rate": 0.1},
    "horizon": 500.0, "seed": 3,
}
SIM_KEYS = {
    None: ("n_threads", "mode", "policy", "length_model", "conflict_schedule", "chain_size",
           "cleanup_cost", "dynamic_b", "doubling_backoff", "horizon", "seed"),
    "policy": ("variant", "B", "mu"),
    "length_model": ("kind", "mean", "sigma", "value"),
    "conflict_schedule": ("kind", "rate", "path"),
}
BENCH_KEYS = ("B", "mu", "trials", "seed", "distributions", "strategies")

# the names the readers look up, so that fuzzed values reach past the enums
NAMES = (
    "requestor_wins", "requestor_aborts", "deterministic", "randomized_unconstrained",
    "randomized_constrained", "discrete_classic", "geometric", "normal_truncated",
    "uniform", "exponential", "poisson", "point_mass", "random_rate", "trace",
    *bench.DISTRIBUTIONS, *bench.STRATEGIES,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(NAMES) | st.just(10 ** 400),  # an int past the float range
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def assert_names_one_of(exc, names):
    assert any(name in str(exc) for name in names), (str(exc), names)


def escaped(name):
    # a field is named as config.quote prints it: escaped and cut short
    return quote(name)[1:-1]


@settings(max_examples=200)
@given(st.data())
def test_simulate_config(data):
    config = copy.deepcopy(SIM_BASE)
    edited = set()
    for section in data.draw(st.lists(st.sampled_from(list(SIM_KEYS)), min_size=1, max_size=4)):
        key = data.draw(st.sampled_from(SIM_KEYS[section]) | st.text(max_size=6))
        target = config if section is None else config.get(section)
        if isinstance(target, dict):
            target[key] = data.draw(json_values)
            edited.update(name for name in (section, key) if name is not None)
    try:
        assert isinstance(config_from_dict(config), SimConfig)
    except ValueError as exc:
        assert_names_one_of(exc, [escaped(name) for name in edited])


@settings(max_examples=200)
@given(st.data())
def test_bench_config(data):
    config = {
        data.draw(st.sampled_from(BENCH_KEYS) | st.text(max_size=6)): data.draw(json_values)
        for _ in range(data.draw(st.integers(0, 4)))
    }
    try:
        assert isinstance(bench.config_from_dict(config), bench.BenchConfig)
    except ValueError as exc:
        assert_names_one_of(exc, [f"'{escaped(key)}'" for key in config])


trace_token = st.integers().map(str) | st.floats().map(repr) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
trace_line = st.lists(trace_token, max_size=4).map(" ".join) | st.just("# a comment")


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.lists(trace_line, max_size=5).map("\n".join).map(str.encode) | st.binary())
def test_trace(tmp_path, content):
    path = tmp_path / "trace.txt"
    path.write_bytes(content)
    try:
        rows = parse_trace(str(path))
    except TraceError as exc:
        assert re.match(rf"{re.escape(quote(str(path)))}:\d+: ", str(exc)), str(exc)
    else:
        assert all(isinstance(t, float) and type(thr) is type(k) is int for t, thr, k in rows)
