"""Deterministic counter-based random streams (SplitMix64).

Every randomized component in this package draws from a SplitMix64 stream.
The generator is counter-based: the n-th 64-bit output of a stream seeded
with ``s`` is ``mix64((s + (n+1) * GOLDEN) mod 2**64)``, so identical seeds
give bit-identical sequences on every platform and in any implementation
language, and batches can be produced without advancing state one draw at
a time.

Sub-streams are derived with :func:`derive_seed`, which folds integer and
string labels into a parent seed.  Components never share streams; each
caller owns its stream explicitly.

:class:`Streams` is the vector form: ``streams(seed, *tokens, n=n)`` holds
the ``n`` streams ``stream(seed, *tokens, i)`` and draws any block of their
next draws at once, the counter-based layout of Salmon et al. 2011 ("Parallel
random numbers: as easy as 1, 2, 3").
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_S11, _S27, _S30, _S31, _MA, _MB = map(np.uint64, (11, 27, 30, 31, _MIX_A, _MIX_B))  # built once
_STR_TAG = 0x5F

_INV_2_53 = 2.0 ** -53

_ROUND = 1 << 14  # draws taken at a time by block callers: bounds the temporaries
# GOLDEN * (1.._ROUND) mod 2**64, the counter offsets of a block's draws; shared read-only
_STEPS = np.arange(1, _ROUND + 1, dtype=np.uint64) * np.uint64(GOLDEN)
_STEPS.flags.writeable = False


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mixing of ``z``."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """:func:`mix64` of each ``z``, in ``out`` (new by default, or ``z``), with the uint64
    ``tmp`` (new by default) as scratch; ``z`` is left unmodified unless it is ``out``."""
    tmp = np.right_shift(z, _S30, out=tmp)
    out = np.bitwise_xor(z, tmp, out=out)
    out *= _MA
    np.right_shift(out, _S27, out=tmp)
    out ^= tmp
    out *= _MB
    np.right_shift(out, _S31, out=tmp)
    out ^= tmp
    return out


def derive_seed(seed: int, *tokens: int | str) -> int:
    """Derive a child seed from ``seed`` and a sequence of labels.

    Integers fold as ``h = mix64(h ^ v)``; strings fold their UTF-8 bytes in
    zero-padded little-endian 8-byte chunks, prefixed with the tagged length.
    """
    h = mix64(seed & _MASK)
    for tok in tokens:
        if isinstance(tok, str):
            data = tok.encode("utf-8")
            h = mix64(h ^ (len(data) << 8) ^ _STR_TAG)
            for off in range(0, len(data), 8):
                chunk = data[off:off + 8]
                h = mix64(h ^ int.from_bytes(chunk, "little"))
        else:
            h = mix64(h ^ (int(tok) & _MASK))
    return h


def _to_unit(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The top 53 bits of each ``z`` times ``2**-53``, in ``out``; shifts ``z`` in place.
    Below ``2**53``, the int64 view converts them exactly (copyto casts unbuffered)."""
    z >>= _S11
    np.copyto(out, z.view(np.int64))
    out *= _INV_2_53
    return out


def open_uniform(u: np.ndarray) -> np.ndarray:
    """Uniforms ``u`` of [0, 1) moved, in place, into (0, 1): each up half a
    cell, ``u + 2**-54``.  The top cell's ``1 - 2**-54`` rounds to 1.0, so it
    is held at ``1 - 2**-53``, the largest double below 1."""
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - _INV_2_53, out=u)


class Stream:
    """One SplitMix64 stream.  Not thread-safe; use one per caller."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK
        return mix64(self._state)

    def u64_batch(self, n: int, out=None, scratch=None) -> np.ndarray:
        counters = np.empty(n, dtype=np.uint64) if out is None else out
        for lo in range(0, n, _ROUND):  # one _STEPS-length piece at a time
            piece = counters[lo:lo + _ROUND]
            np.add(_STEPS[:piece.size], np.uint64(self._state), out=piece)
            self._state = (self._state + GOLDEN * piece.size) & _MASK
        return _mix64_vec(counters, out=counters, tmp=scratch)

    def uniform_batch(self, n: int, out=None, scratch=None) -> np.ndarray:
        """The next ``n`` uniforms in [0, 1), in ``out``, formed in the uint64 ``scratch``."""
        out = np.empty(n) if out is None else out
        return _to_unit(self.u64_batch(n, scratch, out.view(np.uint64)), out)

    def uniform_open_batch(self, n: int) -> np.ndarray:
        """``n`` uniform doubles in (0, 1): :func:`open_uniform` of the next
        ``uniform_batch(n)``."""
        return open_uniform(self.uniform_batch(n))


def stream(seed: int, *tokens: int | str) -> Stream:
    """Stream for ``seed`` scoped by label tokens."""
    return Stream(derive_seed(seed, *tokens) if tokens else seed)


class Streams:
    """Many SplitMix64 streams advanced in lockstep, one column per stream.

    :meth:`uniform_batch` takes the next ``m`` draws of each stream as an
    ``(m, n)`` block: row ``j`` is ``mix64(state_i + (j+1) * GOLDEN)``, and
    column ``i`` equals stream ``i``'s own :meth:`Stream.uniform_batch`.
    """

    __slots__ = ("_states",)

    def __init__(self, states: np.ndarray):
        self._states = np.array(states, dtype=np.uint64)  # a copy: advanced in place

    def __getitem__(self, lanes: slice) -> Streams:
        return Streams(self._states[lanes])  # a new block that advances on its own

    def uniform_batch(self, m: int, out=None, scratch=None) -> np.ndarray:
        """The next ``m`` uniform doubles in [0, 1) of every stream, shape ``(m, n)``,
        in ``out`` and formed in ``scratch`` (``m*n`` elements each) as a Stream's are."""
        shape = (m, *self._states.shape)
        counters = np.empty(shape, dtype=np.uint64) if scratch is None else scratch.reshape(shape)
        for lo in range(0, m, _ROUND):  # one _STEPS-length piece at a time
            piece = counters[lo:lo + _ROUND]
            np.add(_STEPS[:len(piece), None], self._states, out=piece)
            self._states += _STEPS[len(piece) - 1]
        out = np.empty(shape) if out is None else out.reshape(shape)
        return _to_unit(_mix64_vec(counters, out=counters, tmp=out.view(np.uint64)), out)


def streams(seed: int, *tokens: int | str, n: int) -> Streams:
    """The ``n`` streams ``stream(seed, *tokens, i)`` for ``i`` in ``range(n)``.

    An integer token folds as ``h = mix64(h ^ i)``, so all ``n`` seeds come
    from one vectorized mix of the parent seed.
    """
    parent = np.uint64(derive_seed(seed, *tokens))
    return Streams(_mix64_vec(parent ^ np.arange(n, dtype=np.uint64)))
