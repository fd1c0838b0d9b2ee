"""Deterministic 64-bit random generator with derived streams.

The generator is the splitmix construction: a 64-bit counter advanced by a
fixed odd constant, with each output produced by a bijective finalizer.  All
arithmetic is masked to 64 bits, so identical seeds give identical output
sequences on every platform and Python build.

Streams for distinct purposes are derived, not shared: ``derive(seed, index)``
mixes the index into the seed through the same finalizer, so per-trial or
per-purpose substreams never overlap by construction of the counter sequence.
Bernoulli draws with rational probability are exact (no floating point).
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """Bijective 64-bit finalizer used by the splitmix construction."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
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

    def derive(self, index: int) -> "SplitMix64":
        """Independent substream; does not advance this stream."""
        return SplitMix64(derive_seed(self._state, index))

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
        # a Fraction's denominator is positive, so the range check runs on
        # integers; p = 0 and p = 1 have denominator 1, and below(1) draws
        # nothing
        num, den = p.numerator, p.denominator
        if num < 0 or num > den:
            raise ValueError("bernoulli probability must lie in [0, 1]")
        return self.below(den) < num

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
