import ast
from pathlib import Path

import numpy as np
import pytest

from graceperiod.rng import (
    _ROUND,
    _STEPS,
    GOLDEN,
    Stream,
    Streams,
    _mix64_vec,
    _to_unit,
    derive_seed,
    mix64,
    stream,
    streams,
)


def test_splitmix64_reference_vector():
    # Canonical SplitMix64 outputs for seed 0.
    s = Stream(0)
    assert s.u64() == 0xE220A8397B1DCDAF
    assert s.u64() == 0x6E789E6AA1B965F4
    assert s.u64() == 0x06C45D188009454F


def test_mix64_is_deterministic_and_64bit():
    assert mix64(0) == 0
    v = mix64(123456789)
    assert 0 <= v < 1 << 64
    assert mix64(123456789) == v


def test_batch_matches_scalar_sequence():
    a, b = Stream(99), Stream(99)
    batch = a.u64_batch(257)
    scalars = [b.u64() for _ in range(257)]
    assert [int(x) for x in batch] == scalars
    # and the streams stay aligned afterwards
    assert a.u64() == b.u64()


def test_vector_mix_leaves_its_input_unmodified():
    z = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)
    before = z.copy()
    mixed = _mix64_vec(z)
    assert np.array_equal(z, before)
    assert [int(v) for v in mixed] == [mix64(int(v)) for v in before]
    assert np.array_equal(_mix64_vec(z, out=z), mixed)  # in place on request


def test_batches_do_not_share_memory_or_disturb_the_stream():
    # u64_batch mixes its counters in place: each batch is a fresh array that
    # later batches do not overwrite, and blocks continue one another
    a, b = Stream(5), Stream(5)
    first = a.u64_batch(64)
    kept = first.copy()
    second = a.u64_batch(64)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    assert np.array_equal(np.concatenate([first, second]), b.u64_batch(128))


def test_uniform_batch_matches_scalar():
    a, b = Stream(7), Stream(7)
    batch = a.uniform_batch(100)
    scalars = np.array([b.uniform() for _ in range(100)])
    assert np.array_equal(batch, scalars)


def test_open_uniform_is_uniform_plus_half_an_ulp():
    # build_schedule reads the conflict gaps' open uniforms as u + 2**-54
    a, b = Stream(11), Stream(11)
    assert np.array_equal(a.uniform_batch(100_000) + 2.0**-54, b.uniform_open_batch(100_000))
    edges = np.array([0, 1, 2, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=float)
    assert np.array_equal(edges * 2.0**-53 + 2.0**-54, (edges + 0.5) * 2.0**-53)


def test_stream_columns_match_scalar_streams():
    # row j of the blocks of streams(seed, *labels, n=n) is draw j of
    # stream(seed, *labels, i); consecutive blocks continue the streams
    for labels in (("campaign",), ("a", 3), ()):
        lanes = streams(72, *labels, n=40)
        columns = np.concatenate([lanes.uniform_batch(m) for m in (1, 0, 5)])
        assert columns.shape == (6, 40)
        for i in range(40):
            s = stream(72, *labels, i)
            assert np.array_equal(columns[:, i], [s.uniform() for _ in range(6)])


def test_step_table_is_read_only():
    assert _STEPS.size == _ROUND and int(_STEPS[-1]) == _ROUND * GOLDEN % 2**64
    with pytest.raises(ValueError):
        _STEPS[0] = 0


@pytest.mark.parametrize("n", [0, 1, _ROUND, _ROUND + 1, 3 * _ROUND + 5])
def test_u64_batch_equals_an_arange_reference(n):
    # the counters state + i*GOLDEN, i = 1..n, built in one piece; the state wraps
    seed = 2**64 - 3
    counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN) + np.uint64(seed)
    s = Stream(seed)
    assert np.array_equal(s.u64_batch(n), _mix64_vec(counters))
    assert s._state == (seed + n * GOLDEN) % 2**64


def test_to_unit_keeps_the_top_53_bits_exactly():
    ends = _to_unit(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert (ends * 2.0**-53).tolist() == [0.0, (2**53 - 1) * 2.0**-53]
    z = Stream(17).u64_batch(1000)
    assert np.array_equal(_to_unit(z.copy()), (z >> np.uint64(11)).astype(np.float64))


@pytest.mark.parametrize("m", [0, 1, 3, _ROUND + 1])
def test_stream_blocks_equal_per_stream_columns(m):
    states = np.array([0, 1, 2**64 - 1, GOLDEN], dtype=np.uint64)
    kept = states.copy()
    lanes = Streams(states)
    first, second = lanes.uniform_batch(m), lanes.uniform_batch(m)
    assert first.shape == (m, 4)
    assert np.array_equal(states, kept)  # the caller's array is never advanced
    for i, state in enumerate(kept.tolist()):
        column = np.concatenate([first[:, i], second[:, i]])
        assert np.array_equal(column, Stream(state).uniform_batch(2 * m))


def test_uniform_ranges():
    s = Stream(3)
    u = s.uniform_batch(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    v = s.uniform_open_batch(10_000)
    assert np.all(v > 0.0) and np.all(v < 1.0)


def test_derive_seed_separates_labels():
    seeds = {
        derive_seed(1, "alpha"),
        derive_seed(1, "beta"),
        derive_seed(1, "alpha", 0),
        derive_seed(1, "alpha", 1),
        derive_seed(2, "alpha"),
    }
    assert len(seeds) == 5
    assert derive_seed(1, "alpha", 7) == derive_seed(1, "alpha", 7)


def test_stream_helper():
    assert stream(5, "x").u64() == stream(5, "x").u64()
    assert stream(5, "a").u64() == Stream(derive_seed(5, "a")).u64()
    assert stream(5).u64() == Stream(5).u64()


# The scalar samplers: kept as references for the tests and as patch targets
# of the perf probes, and called nowhere else in the package.
SCALAR_SAMPLERS = {("Stream", "uniform"), ("GracePeriodStrategy", "sample")}
SRC = Path(__file__).resolve().parent.parent / "src" / "graceperiod"


def scalar_draws(source: str) -> list[tuple[int, str, tuple[str, ...]]]:
    """``(line, attr, scope)`` of each zero-argument ``.uniform()`` or
    ``.u64()`` call and each ``.sample(`` call in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, bare = node.func.attr, not node.args and not node.keywords
            if (attr in ("uniform", "u64") and bare) or attr == "sample":
                found.append((node.lineno, attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_scalar_draw_guard_sees_calls():
    source = "def f(s, t):\n    s.uniform()\n    s.u64()\n    t.sample(s)\n    s.uniform(3)\n"
    assert [attr for _, attr, _ in scalar_draws(source)] == ["uniform", "u64", "sample"]


def test_no_scalar_draw_in_src():
    exempt = []
    for path in sorted(SRC.glob("*.py")):
        for line, attr, scope in scalar_draws(path.read_text(encoding="utf-8")):
            assert scope[:2] in SCALAR_SAMPLERS, f"{path.name}:{line}: scalar .{attr}() in {scope}"
            exempt.append(scope[:2])
    assert set(exempt) == SCALAR_SAMPLERS  # both exemptions still name a draw
