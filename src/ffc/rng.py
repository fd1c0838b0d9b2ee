"""Deterministic 64-bit random generator with derived streams.

The generator is the splitmix construction: a 64-bit counter advanced by a
fixed odd constant, with each output produced by a bijective finalizer.  All
arithmetic is masked to 64 bits, so identical seeds give identical output
sequences on every platform and Python build.

Streams for distinct purposes are derived, not shared:
``derive_seed(seed, index)`` mixes the index into the seed through the same
finalizer, so per-trial or per-purpose substreams never overlap by
construction of the counter sequence.
Bernoulli draws with rational probability are exact (no floating point).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Bijective 64-bit finalizer used by the splitmix construction."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, index: int) -> int:
    """Seed of the derived stream number ``index`` of the stream ``seed``."""
    return mix64(mix64(seed & _MASK) ^ mix64((index & _MASK) ^ _GAMMA))


class SplitMix64:
    """Counter-based generator; state is one 64-bit word."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection; exact."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly ``p`` (a rational in [0, 1])."""
        return bool(self.bernoulli_hits(((p.numerator, p.denominator),)))

    def bernoulli_hits(self, probs: Sequence[tuple[int, int]]) -> list[int]:
        """Indices k, ascending, at which a draw with probability
        num_k / den_k comes up True, for the integer pairs (num_k, den_k)
        in order (each needs 0 <= num_k <= den_k and den_k >= 1).

        Each draw is ``below(den_k) < num_k`` on the same ``next_u64``
        sequence, so den_k = 1 (probability 0 or 1) draws nothing; the
        generator step and the masked rejection run inline, in one loop,
        for the descent's many short suffix draws.
        """
        state = self._state
        hits = []
        for k, (num, den) in enumerate(probs):
            if den < 1 or not 0 <= num <= den:
                self._state = state
                raise ValueError("bernoulli probability must lie in [0, 1]")
            if den == 1:
                if num:
                    hits.append(k)
                continue
            mask = (1 << (den - 1).bit_length()) - 1
            while True:
                state = (state + _GAMMA) & _MASK
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK
                v = (z ^ (z >> 31)) & mask
                if v < den:
                    break
            if v < num:
                hits.append(k)
        self._state = state
        return hits

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
