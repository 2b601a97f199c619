import ast
from pathlib import Path

import numpy as np
import pytest

from graceperiod.adversary import AdversaryModel, sample_length
from graceperiod.rng import (
    _MIX_A,
    _MIX_B,
    _ROUND,
    _STEPS,
    GOLDEN,
    Stream,
    Streams,
    _mix64_vec,
    _to_unit,
    derive_seed,
    mix64,
    open_uniform,
    stream,
    streams,
)

MASK = 2**64 - 1


def unmix64(z: int) -> int:
    """The inverse of :func:`mix64`: each xorshift undone by repeating it, each
    multiply by the inverse of its odd factor modulo 2**64."""

    def unshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(_MIX_B, -1, 2**64) & MASK, 27)
    return unshift(z * pow(_MIX_A, -1, 2**64) & MASK, 30)


def top_cell_stream(draw: int = 1) -> Stream:
    """A stream whose ``draw``-th output has all 64 bits set, so its top 53
    bits are the top cell of the unit interval."""
    return Stream((unmix64(MASK) - draw * GOLDEN) & MASK)


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
    scalars = np.array([(b.u64() >> 11) * 2**-53 for _ in range(100)])
    assert np.array_equal(batch, scalars)


def test_open_uniform_is_uniform_plus_half_an_ulp():
    # build_schedule maps the conflict gaps' uniforms through the same open_uniform
    a, b = Stream(11), Stream(11)
    assert np.array_equal(a.uniform_batch(100_000) + 2.0**-54, b.uniform_open_batch(100_000))
    edges = np.array([0, 1, 2, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2], dtype=float)
    assert np.array_equal(open_uniform(edges * 2.0**-53), (edges + 0.5) * 2.0**-53)
    # the top cell's u + 2**-54 rounds to 1.0; it is held just below
    assert (2**53 - 1) * 2.0**-53 + 2.0**-54 == 1.0
    assert open_uniform(np.array([(2**53 - 1) * 2.0**-53])).tolist() == [1.0 - 2.0**-53]


def test_unmix64_inverts_mix64():
    for z in (0, 1, GOLDEN, MASK, *Stream(5).u64_batch(100).tolist()):
        assert mix64(unmix64(z)) == z and unmix64(mix64(z)) == z
    assert top_cell_stream(3).u64_batch(3).tolist()[2] == MASK


def test_top_cell_open_draw_stays_below_one():
    # one draw in 2**53 has its top 53 bits set: it is 1 - 2**-53, never 1.0
    assert top_cell_stream().uniform_open_batch(1).tolist() == [1.0 - 2.0**-53]
    # so an inverted length stays in its support, and no table is indexed past its end
    lengths = sample_length(AdversaryModel("poisson", 20.0), top_cell_stream(), 1)
    assert lengths[0] >= 1.0
    lengths = sample_length(AdversaryModel("exponential", 20.0), top_cell_stream(), 1)
    assert lengths[0] > 0.0


def test_stream_columns_match_scalar_streams():
    # row j of the blocks of streams(seed, *labels, n=n) is draw j of
    # stream(seed, *labels, i); consecutive blocks continue the streams
    for labels in (("campaign",), ("a", 3), ()):
        lanes = streams(72, *labels, n=40)
        columns = np.concatenate([lanes.uniform_batch(m) for m in (1, 0, 5)])
        assert columns.shape == (6, 40)
        for i in range(40):
            s = stream(72, *labels, i)
            assert np.array_equal(columns[:, i], [(s.u64() >> 11) * 2**-53 for _ in range(6)])


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
    ends = _to_unit(np.array([0, 2**64 - 1], dtype=np.uint64), np.empty(2))
    assert ends.tolist() == [0.0, (2**53 - 1) * 2.0**-53]
    z = Stream(17).u64_batch(1000)
    out = np.empty(1000)
    assert _to_unit(z.copy(), out) is out
    assert np.array_equal(out, (z >> np.uint64(11)).astype(np.float64) * 2.0**-53)


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


# No scalar sampler is left in the package: GracePeriodStrategy.sample draws
# through sample_batch, and the tests write their scalar reference,
# (s.u64() >> 11) * 2**-53, themselves.
SCALAR_SAMPLERS = set()
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
    assert set(exempt) == SCALAR_SAMPLERS  # the exemption still names a draw
