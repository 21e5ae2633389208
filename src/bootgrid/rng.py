"""Deterministic counter-based random streams.

Every random number in this package is a pure function of a stream key and
a counter, with no hidden generator state.  A stream is identified by a
64-bit seed plus a tuple of substream indices, every part in [0, 2^64)
(others are refused); drawing ``n`` uniforms from the same stream always
yields the same array.  This is what makes trials reorderable: work can be
chunked, threaded or re-run and the numbers never move.

The mixing function is the SplitMix64 finaliser applied to
``hash(key) XOR counter``.  Keys are hashed by folding each component in
with one finaliser round, so ``stream.child(i)`` is cheap and collisions
between unrelated substreams are not a practical concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def _mix_int(z: int) -> int:
    """One SplitMix64 finaliser round on a Python int (mod 2^64)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, elementwise and in place on a uint64 array,
    with one temporary of its size; returns ``z``."""
    tmp = np.empty_like(z)
    z += np.uint64(_GOLDEN)
    for shift, mult in ((30, _MULT1), (27, _MULT2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _hash_key(key: tuple[int, ...]) -> int:
    """The hash of a stream key, whose parts must lie in [0, 2^64): a part
    outside it would be reduced mod 2^64 and silently share the stream of
    another key."""
    for part in key:
        if not 0 <= part <= _MASK64:
            raise ValueError(f"stream key parts must lie in [0, 2^64), got {part}")
    h = _mix_int(key[0])
    for part in key[1:]:
        h = _mix_int(h ^ part)
    return h


def _uniforms(hashes: np.ndarray, first: int, count: int) -> np.ndarray:
    """Uniforms ``first .. first + count`` of the streams whose key hashes
    are ``hashes``: one row a hash, one column a counter.  Each is the top
    53 bits of ``mix(hash ^ counter)`` scaled into [0, 1)."""
    bits = _mix_array(hashes[:, None] ^ np.arange(first, first + count, dtype=np.uint64))
    return np.right_shift(bits, np.uint64(11), out=bits) * 2.0**-53


def derive_seed(seed: int, *parts: int) -> int:
    """Fold extra indices into a seed, giving an independent 64-bit seed."""
    return _hash_key((seed, *parts))


@dataclass(frozen=True)
class Stream:
    """A stateless random stream addressed by (seed, substream indices)."""

    key: tuple[int, ...]

    def __init__(self, key: int | tuple[int, ...]):
        if isinstance(key, int):
            key = (key,)
        object.__setattr__(self, "key", tuple(key))

    def child(self, index: int) -> "Stream":
        """Substream ``index`` of this stream."""
        return Stream(self.key + (index,))

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` float64 uniforms in [0, 1).  Same call, same numbers."""
        return _uniforms(np.array([_hash_key(self.key)], dtype=np.uint64), 0, count)[0]

    def uniform_block(
        self, first_child: int, n_children: int, count: int, first: int = 0
    ) -> np.ndarray:
        """Uniforms ``first .. first + count`` of ``n_children`` consecutive
        substreams at once.

        Row ``i`` is bit-identical to
        ``self.child(first_child + i).uniforms(first + count)[first:]``, which
        is what allows trial loops to be vectorised, and a long stream to be
        drawn in pieces, without changing any trial's numbers.
        """
        kids = np.uint64(_hash_key(self.key)) ^ np.arange(
            first_child, first_child + n_children, dtype=np.uint64
        )
        return _uniforms(_mix_array(kids), first, count)
