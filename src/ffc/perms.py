"""Permutations, probabilistic swaps, and swap programs.

A swap program is a list of independent random transpositions: entry k swaps
a fixed pair (s_k, t_k) with probability alpha_k and does nothing otherwise.
The realized permutation is the product of the fired transpositions applied
in program order (entry 0 acts first).  ``uniform_program`` builds the
doubling recursion whose product is exactly uniform on the symmetric group;
``leaf_distribution`` expands any program's outcome distribution exactly by
dynamic programming over reachable permutations.

For plain uniform sampling where the swap structure is irrelevant there is
also a direct Fisher-Yates sampler driven by the same deterministic stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import config
from .errors import BudgetError, ParameterError
from .rng import SplitMix64


@dataclass(frozen=True)
class Permutation:
    """Bijection i -> image[i] on {0, ..., d-1}."""

    image: tuple[int, ...]

    def __post_init__(self):
        if not all(type(v) is int for v in self.image):
            raise ParameterError(f"permutation entries must be integers: {self.image}")
        if sorted(self.image) != list(range(len(self.image))):
            raise ParameterError(f"not a permutation image: {self.image}")

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(d)))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def swap_values(self, s: int, t: int) -> "Permutation":
        """Left-compose with the transposition (s t)."""
        return Permutation(_swap_image(self.image, s, t))


def _swap_image(image: tuple[int, ...], s: int, t: int) -> tuple[int, ...]:
    return tuple(t if v == s else s if v == t else v for v in image)


def relabel_grid(grid: list[list[int]], image: tuple[int, ...]) -> list[list[int]]:
    """Conjugate a square grid by the permutation matrix of ``image``:
    output[image[i]][image[j]] = grid[i][j]."""
    d = len(grid)
    out = [[0] * d for _ in range(d)]
    for i in range(d):
        gi = grid[i]
        oi = image[i]
        row = out[oi]
        for j in range(d):
            row[image[j]] = gi[j]
        out[oi] = row
    return out


@dataclass(frozen=True)
class RandomSwap:
    """Transposition (s t) fired independently with rational probability."""

    s: int
    t: int
    prob: Fraction

    def __post_init__(self):
        if self.s == self.t or min(self.s, self.t) < 0:
            raise ParameterError("swap needs two distinct nonnegative indices")
        if not (0 <= self.prob <= 1):
            raise ParameterError("swap probability must lie in [0, 1]")


@dataclass(frozen=True)
class SwapProgram:
    """Ordered independent random swaps acting on {0, ..., dimension-1}."""

    dimension: int
    swaps: tuple[RandomSwap, ...]

    def __post_init__(self):
        for sw in self.swaps:
            if max(sw.s, sw.t) >= self.dimension:
                raise ParameterError("swap index out of range")

    def __len__(self) -> int:
        return len(self.swaps)

    @cached_property
    def _probs(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of each swap's probability, for
        ``SplitMix64.bernoulli_hits``; computed once per program."""
        return tuple((sw.prob.numerator, sw.prob.denominator) for sw in self.swaps)


def uniform_program(d: int) -> SwapProgram:
    """Program of 2**(d-1) - 1 swaps whose product is uniform on all d!
    permutations.

    Doubling recursion: the stage-k block is (stage k-1, swap of slots 0 and
    k-1, stage k-1 again).  The middle swap fires with probability (k-1)/k,
    so slot k-1 keeps its entry with the 1/k chance a uniform permutation
    would give it; when the swap does fire, the entry it imports is already
    uniform on the first k-1 slots.
    """
    if d < 1:
        raise ParameterError("dimension must be at least 1")
    swaps: list[RandomSwap] = []
    for k in range(2, d + 1):
        swaps = swaps + [RandomSwap(0, k - 1, Fraction(k - 1, k))] + swaps
    return SwapProgram(d, tuple(swaps))


def bipartite_uniform_program(d: int) -> SwapProgram:
    """Independent uniform programs on {0..d-1} and {d..2d-1}, concatenated."""
    base = uniform_program(d)
    shifted = tuple(
        RandomSwap(sw.s + d, sw.t + d, sw.prob) for sw in base.swaps
    )
    return SwapProgram(2 * d, base.swaps + shifted)


def _sample_image(program: SwapProgram, rng: SplitMix64, start: int) -> tuple[int, ...]:
    """Draw one realization of the product of the program's swaps from
    index ``start`` on, as an image tuple.

    The swaps' Bernoulli draws run in one loop on the generator
    (``SplitMix64.bernoulli_hits``), the same draws in the same order as
    one ``rng.bernoulli(sw.prob)`` per swap, so images and the generator's
    final state match; only the fired swaps are then applied.
    """
    if not 0 <= start <= len(program.swaps):
        raise ParameterError(f"start {start} outside the program's {len(program.swaps)} swaps")
    image = list(range(program.dimension))
    where = list(image)  # where[v] is the position of value v in image
    swaps = program.swaps
    for k in rng.bernoulli_hits(program._probs[start:]):
        sw = swaps[start + k]
        s, t = sw.s, sw.t
        i, j = where[s], where[t]
        image[i], image[j] = t, s
        where[s], where[t] = j, i
    return tuple(image)


def leaf_distribution(program: SwapProgram) -> dict[Permutation, Fraction]:
    """Exact outcome distribution of the program's product permutation.

    Expands swap by swap over the reachable permutations, so cost is
    (number of swaps) * (reachable support), never 2**swaps.  Refuses
    programs longer than ``config.MAX_SWAPS`` swaps.
    """
    if len(program.swaps) > config.MAX_SWAPS:
        raise BudgetError(
            f"program has {len(program.swaps)} swaps, "
            f"budget allows {config.MAX_SWAPS}"
        )
    dist: dict[tuple[int, ...], Fraction] = {
        tuple(range(program.dimension)): Fraction(1)
    }
    for sw in program.swaps:
        stay_p = 1 - sw.prob
        nxt: dict[tuple[int, ...], Fraction] = {}
        for image, pr in dist.items():
            if stay_p:
                nxt[image] = nxt.get(image, Fraction(0)) + pr * stay_p
            if sw.prob:
                fired = _swap_image(image, sw.s, sw.t)
                nxt[fired] = nxt.get(fired, Fraction(0)) + pr * sw.prob
        dist = nxt
    return {Permutation(img): pr for img, pr in dist.items()}


def uniform_permutation(d: int, rng: SplitMix64) -> Permutation:
    """Uniform permutation by Fisher-Yates; same distribution as sampling
    ``uniform_program(d)`` but without the swap structure."""
    items = list(range(d))
    rng.shuffle(items)
    return Permutation(tuple(items))
