"""Seeded splitmix64 randomness: the library's one source of draws.

Every randomized decision in the repository must be a pure function of
its seed.  This module is the only randomness source allowed
(:mod:`repro.check.codelint` bans ``random.*`` and ``numpy.random``):
the randomized gossip baselines (:mod:`repro.core.epidemic`,
:mod:`repro.core.coded`), the runtime fault model
(:mod:`repro.simulator.lossy`) and the real-network runtime's loss,
delay and back-off draws all use it.  One seed can therefore govern a
protocol's coin flips and the faults injected into it without the two
streams ever colliding (they are domain-separated by tag).

Two access patterns are offered:

* :func:`keyed_uniform` / :func:`keyed_u64` — stateless draws keyed by
  ``(seed, tag, *coords)``: iteration-order independent, so a protocol
  that asks "what does vertex ``v`` do in round ``t``?" gets the same
  answer no matter who asks first.  :func:`keyed_uniform_array` is the
  same draw over numpy coordinate columns, bit for bit;
* :class:`SplitMix64` — a sequential stream (the classic splitmix64
  generator) for draws that have no natural coordinates, forked off a
  keyed root so substreams stay independent.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

import numpy as np

from ..exceptions import ReproError

__all__ = [
    "MASK64",
    "mix64",
    "keyed_u64",
    "keyed_uniform",
    "keyed_uniform_array",
    "SplitMix64",
]

T = TypeVar("T")

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finaliser — a high-quality 64-bit avalanche."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def keyed_u64(seed: int, tag: int, *coords: int) -> int:
    """Deterministic 64-bit draw keyed by ``(seed, tag, coords)``.

    Pure function of its arguments — independent of call order, so
    per-(round, vertex) protocol decisions are reproducible even if the
    iteration order of the surrounding loop changes.
    """
    h = mix64(seed & MASK64)
    h = mix64(h ^ tag)
    for c in coords:
        h = mix64(h ^ ((c + 1) * _GOLDEN & MASK64))
    return h


def keyed_uniform(seed: int, tag: int, *coords: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by the coordinates."""
    return keyed_u64(seed, tag, *coords) / 2.0**64


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` on a uint64 array (numpy arithmetic wraps mod 2**64)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def keyed_uniform_array(seed: int, tag: int, *coords: np.ndarray) -> np.ndarray:
    """:func:`keyed_uniform` over equal-length integer coordinate columns.

    Entry ``i`` equals ``keyed_uniform(seed, tag, coords[0][i], ...)``.
    """
    root = np.uint64(mix64(mix64(seed & MASK64) ^ tag))
    h = np.full(len(coords[0]), root, dtype=np.uint64)
    for c in coords:
        step = (np.asarray(c, dtype=np.int64).astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
        h = _mix64_array(h ^ step)
    return h.astype(np.float64) / 2.0**64


class SplitMix64:
    """The classic sequential splitmix64 generator.

    Used for draws without natural coordinates (e.g. "pick a random
    subset of my basis rows"); create one per ``(round, vertex)`` via
    :func:`keyed_u64` so streams never alias::

        rng = SplitMix64(keyed_u64(seed, TAG, round, vertex))
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        """The next 64-bit output word."""
        x = self._state
        self._state = (x + _GOLDEN) & MASK64
        return mix64(x)

    def uniform(self) -> float:
        """Uniform draw in ``[0, 1)``."""
        return self.next_u64() / 2.0**64

    def randrange(self, k: int) -> int:
        """Uniform integer in ``[0, k)`` (unbiased via rejection)."""
        if k <= 0:
            raise ReproError(f"randrange needs k >= 1, got {k}")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % k

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform element of a non-empty sequence."""
        return seq[self.randrange(len(seq))]

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """``min(k, len(seq))`` distinct elements, order randomised.

        Partial Fisher–Yates over a copy — deterministic for a fixed
        stream state, independent of the input's object identities.
        """
        pool = list(seq)
        k = min(k, len(pool))
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def bit_subset(self, mask: int) -> int:
        """A uniformly random sub-bitset of ``mask`` (possibly empty).

        Each set bit of ``mask`` is kept independently with probability
        1/2 — the GF(2) "uniform random linear combination" draw used by
        the coded-gossip packets, one 64-bit word at a time.
        """
        out = 0
        shift = 0
        while mask >> shift:
            out |= ((mask >> shift) & MASK64 & self.next_u64()) << shift
            shift += 64
        return out
