"""Search strategies that produce certified Ramanujan matching unions.

Two routes.  ``rejection_search`` samples unions of uniform matchings and
makes one integer Krylov pass per trial (``graphs.witnessed_terms``): an
exact Rayleigh quotient of its terms rejects a trial on the spot when it
proves a nontrivial eigenvalue past the bound, and ``certify`` decides
every other trial from the same terms.  Existence holds with nonzero
probability, so exhausting the trial budget is reported rather than
raised.  A trial past
``graphs.MAX_CERTIFY_SIDE`` or ``graphs.MAX_SEARCH_DEGREE`` is refused
before anything is sampled, and a descent past the degree limit before its
program is built.
``interlacing_descent`` walks the random-swap programs realizing the
uniform distribution and greedily fixes each swap to the branch whose
conditional expected characteristic polynomial has the smaller largest
nontrivial root.

Each step runs on integers.  A conditional is one call of
``quadrature.weighted_charpoly_sum`` (``_conditional_average``) over the
per-program distributions of placed keys: integer coefficients and one
denominator, with no RatPoly.  A term's characteristic polynomial depends
only on the matchings it places, so each suffix image is composed onto its
prefix and keyed canonically (``_keyed``: the matching with its pairs
sorted in plain mode, the placed permutation in bipartite mode), the
weights of one key added up, and each term is read from one bounded,
process-wide table keyed by the sorted keys (``_union_charpoly``).  An
exact plain d=4 suffix of 24 images places 3 matchings, so the initial
conditional of an exact plain d=4, m=3 descent has 27 terms, not 13 824.
Many image multisets place one union: a sampled plain d=6, m=3 descent
averages about 800 multisets, but d=6 has only 15 matchings and so at most
680 unions, and a run of such descents computes each of them once; a miss
builds ``graphs.union_grid``.  Bipartite conditionals average char(N N^T)
of the d x d Gram matrix.  The trivial root is divided out of the integers
by ``graphs._deflate_int``, m in plain mode and m**2 in the Gram variable
in bipartite mode, before x**2 is substituted; the quotient is exact
because x - m and y - m**2 are monic.  The two candidates are compared on
their primitive integer coefficients (``_fired_wins``), by proved top-root
cells first, and only the winner becomes a RatPoly, for the step's record.
The cells come from a second process-wide table
(``_conditional_top_cell``), so each distinct conditional's cell is proved
once, however often it is compared.

A sampled step (i, j) draws only the suffixes its conditionals read
(``_sampled_suffixes``): the deciding program's from swap j + 1 on and a
full one for each later program.  Programs before i are pinned to their
images, so their suffixes are never drawn; where a later program's draws
follow, the generator is advanced past them by their Bernoulli trials
alone, and every draw that is read is the one the step would make if it
drew all m suffixes.  Suffixes are drawn from a start index of the one
program (``perms._sample_image``), with each suffix's Bernoulli trials in
one loop on the generator.

In exact strategy the conditionals are full leaf enumerations and the
greedy choice provably never increases that root, so the terminal graph
beats the expected polynomial; this is exponential and meant for tiny
sizes.  The sampled strategy substitutes per-program empirical suffix
distributions.  These are not products of independent swaps, so the
averages form no interlacing family and need not be real-rooted, or have
any real root; the strategy offers no guarantee.  Either strategy is
refused before its program is built when its conditionals would need more
than ``config.MAX_DET_EVALS`` terms in all (``_check_descent_budget``),
counted by keys: every suffix is charged K keys, the matchings or placed
permutations an image can place, or min(K, samples) when it is sampled.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import config
from .errors import BudgetError, ParameterError
from .graphs import (
    MAX_CERTIFY_SIDE,
    MAX_SEARCH_DEGREE,
    MODES,
    STRICT,
    WITH_BOUNDARY,
    MatchingUnion,
    RamanujanCertificate,
    _deflate_int,
    _gram,
    certify,
    check_shape,
    sample_bipartite,
    sample_nonbipartite,
    union_grid,
    witnessed_terms,
)
from .matrix import charpoly_int_coeffs
from .perms import (
    Permutation,
    SwapProgram,
    _sample_image,
    bipartite_uniform_program,
    leaf_distribution,
    uniform_program,
)
from .poly import RatPoly, _int_primitive
from .quadrature import weighted_charpoly_sum
from .rng import SplitMix64, derive_seed
from .sturm import _chain_from_coeffs, _compare_int, _proved_top_cell
from .transforms import matching_fold

# the search no longer calls these; bench/tracing.py still looks them up in
# this module, so the names stay importable here
from .graphs import deflate_trivial, float_filter  # noqa: F401
from .perms import relabel_grid  # noqa: F401
from .sturm import compare_max_roots  # noqa: F401
from .transforms import ramanujan_bound  # noqa: F401


def expected_poly_for_graph_model(mode: str, d: int, m: int) -> RatPoly:
    """Expected characteristic polynomial of a union of m uniform matchings.

    Closed form via the convolution identities: the trivial roots times the
    m-fold additive convolution of the single-matching nontrivial polynomial
    (symmetric kind on d vertices; rectangular kind, squared back up, for
    the bipartite model on d + d vertices).
    """
    check_shape(mode, d, m)
    if mode == "nonbipartite":
        return RatPoly.from_roots([Fraction(m)]) * matching_fold("sym", m, d)
    return RatPoly.from_roots([Fraction(m), Fraction(-m)]) * matching_fold("asym", m, d)


@dataclass(frozen=True)
class DescentStep:
    """One fixed swap: which branch was taken and the conditional expectation
    (deflated) that justified it."""

    program_index: int
    swap_index: int
    fired: bool
    deflated: RatPoly


@dataclass(frozen=True)
class SearchReport:
    mode: str
    d: int
    m: int
    trials_run: int
    successes: int
    first_success_trial: int | None
    graph: MatchingUnion | None
    certificate: RamanujanCertificate | None
    wall_time: float
    steps: tuple[DescentStep, ...] | None = None
    initial_deflated: RatPoly | None = None


def rejection_search(
    mode: str,
    d: int,
    m: int,
    max_trials: int,
    seed: int,
    allow_boundary: bool = False,
) -> SearchReport:
    """Sample matching unions until one certifies Ramanujan, or give up.

    Trial t uses the substream derived from (seed, t), so the first success
    and its graph are reproducible.  Each trial makes one integer Krylov
    pass; a trial whose exact Rayleigh witness proves it NOT_RAMANUJAN stops
    there, and every other one is certified from the same terms, so every
    returned success carries an exact certificate and no float is involved.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if max_trials < 1:
        raise ParameterError("need at least one trial")
    check_shape(mode, d, m)
    if d > MAX_CERTIFY_SIDE or m > MAX_SEARCH_DEGREE:
        raise BudgetError(
            f"a search trial at d = {d}, m = {m} exceeds the budget of "
            f"d <= {MAX_CERTIFY_SIDE}, m <= {MAX_SEARCH_DEGREE}"
        )
    start = time.perf_counter()
    sampler = sample_bipartite if mode == "bipartite" else sample_nonbipartite
    for trial in range(max_trials):
        rng = SplitMix64(derive_seed(seed, trial))
        g = sampler(d, m, rng)
        terms = witnessed_terms(g)
        if terms is None:
            continue
        cert = certify(g, terms)
        if cert.verdict == STRICT or (allow_boundary and cert.verdict == WITH_BOUNDARY):
            return SearchReport(
                mode=mode,
                d=d,
                m=m,
                trials_run=trial + 1,
                successes=1,
                first_success_trial=trial,
                graph=g,
                certificate=cert,
                wall_time=time.perf_counter() - start,
            )
    return SearchReport(
        mode=mode,
        d=d,
        m=m,
        trials_run=max_trials,
        successes=0,
        first_success_trial=None,
        graph=None,
        certificate=None,
        wall_time=time.perf_counter() - start,
    )


# -- greedy interlacing descent ----------------------------------------------------


@lru_cache(maxsize=256)
def _suffix_distribution(program: SwapProgram, start: int):
    """Leaf distribution of the program's swaps from ``start`` on, as a
    sorted tuple of (image, probability).  The descent refuses a program
    past ``config.MAX_SWAPS`` swaps before any suffix, so the budget needs
    no place in the cache key."""
    tail = SwapProgram(program.dimension, program.swaps[start:])
    dist = leaf_distribution(tail)
    return tuple(sorted((p.image, pr) for p, pr in dist.items()))


def _compose_images(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[v] for v in inner)


def _union_image(mode: str, d: int, image: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation a program image places in the union.  A bipartite
    image permutes both sides of the matching joining i to d + i; with
    left = image[:d] and right = image[d:] - d it places left o right**-1."""
    if mode == "nonbipartite":
        return image
    placed = [0] * d
    for i in range(d):
        placed[image[d + i] - d] = image[i]
    return tuple(placed)


# Bounds on the process-wide caches below.  A plain d=6, m=3 descent places
# 15 matchings and at most C(17, 3) = 680 unions, and a bipartite d=4, m=3
# one at most C(26, 3) = 2600, so a run of such descents fills the charpoly
# table once and then only reads it.  Full, the tables of keys and of
# charpolys hold about 7 MiB at bipartite d = 20, m = 3, the largest side a
# sampled m = 3 descent admits (tracemalloc, CPython 3.11), and the cell
# table at most about 7 MiB more (the 39 coefficients of a bipartite
# d = 20 conditional, sys.getsizeof).
_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def _placed_key(mode: str, d: int, image: tuple[int, ...]) -> tuple[int, ...]:
    """What a program image places in the union, in the canonical form the
    charpoly table keys on.  In bipartite mode that is the placed
    permutation (``_union_image``).  In plain mode it is the matching, as an
    image with each pair and the pairs sorted: two images get one key
    exactly when they place the same matching, and the key is itself an
    image that places it."""
    if mode == "bipartite":
        return _union_image(mode, d, image)
    pairs = sorted(
        (a, b) if a < b else (b, a) for a, b in zip(image[::2], image[1::2])
    )
    return tuple(v for pair in pairs for v in pair)


@lru_cache(maxsize=_CACHE_SIZE)
def _union_charpoly(mode: str, d: int, key: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Integer characteristic polynomial of the union that the sorted
    ``_placed_key``s in ``key`` make: of the adjacency in plain mode, of the
    Gram matrix N N^T in bipartite mode.  It depends on the multiset of
    matchings placed and on nothing else, so one table serves every descent
    of the process."""
    grid = union_grid(mode, d, key)
    return charpoly_int_coeffs(grid if mode == "nonbipartite" else _gram(grid))


@lru_cache(maxsize=_CACHE_SIZE)
def _conditional_top_cell(coeffs: tuple[int, ...]) -> tuple[int, int] | None:
    """``sturm._proved_top_cell`` of a conditional's primitive integer
    coefficients, None included, proved once per process.  A run of sampled
    plain d=6, m=3 descents compares few distinct conditionals many times
    over: 1200 seeded descents make 154 224 lookups of 204 polynomials."""
    return _proved_top_cell(coeffs)


def _keyed(mode: str, d: int, prefix: tuple[int, ...], dist) -> dict:
    """The distribution of ``_placed_key``s of a program whose suffix
    images, (image, probability) pairs in ``dist``, compose onto ``prefix``:
    the weights of images that place one matching added up.  A None ``dist``
    pins the program to its prefix.  Most keys are met once, and a plain
    store costs no Fraction addition."""
    if dist is None:
        return {_placed_key(mode, d, prefix): Fraction(1)}
    keyed: dict[tuple[int, ...], Fraction] = {}
    for img, pr in dist:
        key = _placed_key(mode, d, _compose_images(img, prefix))
        if key in keyed:
            keyed[key] += pr
        else:
            keyed[key] = pr
    return keyed


def _conditional_average(
    mode: str, d: int, prefixes: list, suffixes: list
) -> tuple[list[int], int]:
    """Integer coefficients, ascending, and one positive denominator of the
    union's average characteristic polynomial, with each program's suffix
    images composed onto its prefix (``_keyed``): of char(A) in plain mode,
    and of char(N N^T), in the Gram variable y with
    char(A)(x) = char(N N^T)(x**2), in bipartite mode.  Each term is read
    from ``_union_charpoly`` under the sorted keys."""
    acc, den, _ = weighted_charpoly_sum(
        [_keyed(mode, d, p, s).items() for p, s in zip(prefixes, suffixes)],
        lambda keys: _union_charpoly(mode, d, tuple(sorted(keys))),
    )
    return acc, den


def _check_descent_budget(mode: str, d: int, m: int, n_swaps: int, samples: int | None) -> None:
    """Refuse a descent whose suffix draws or conditionals need more than
    ``config.MAX_DET_EVALS`` evaluations in all, before any program is
    built.

    A conditional has one term per combination of placed keys, and every
    suffix is charged c keys: c = K for an exact descent (``samples`` None)
    and c = min(K, samples) for a sampled one, K = (d - 1)!! matchings in
    plain mode and d! placed permutations in bipartite mode.  The initial
    conditional has c**m terms and step (i, j) compares two of c**(m - i)
    each, so the count is c**m + 2 n_swaps sum_{k=1..m} c**k.  A sampled
    descent's draws are counted first, each as one evaluation.
    """
    if samples is not None:
        # m suffixes before the first step and m per step, each drawn
        # samples times, bound the draws (a step skips the suffixes of the
        # programs before its own)
        draws = samples * m * (1 + m * n_swaps)
        if draws > config.MAX_DET_EVALS:
            raise BudgetError(
                f"sampled descent draws {draws} suffixes, determinant budget "
                f"allows {config.MAX_DET_EVALS}"
            )
    # the swap or the draw check has kept d <= 24, so K costs nothing
    keys = math.factorial(d) if mode == "bipartite" else math.prod(range(d - 1, 0, -2))
    if samples is None:
        c, strategy, hint = keys, "exact", "use strategy='sampled'"
    else:
        c, strategy = min(samples, keys), "sampled"
        hint = (
            f"use fewer than {samples} samples per program"
            if samples > 1
            else "one sample per program is past it too; use a smaller d or m"
        )
    need = c**m + 2 * n_swaps * sum(c**k for k in range(1, m + 1))
    if need > config.MAX_DET_EVALS:
        raise BudgetError(
            f"{strategy} descent needs {need} determinant evaluations, budget "
            f"allows {config.MAX_DET_EVALS}; {hint}"
        )


def _empirical_suffix(
    program: SwapProgram, start: int, rng: SplitMix64, samples: int
) -> tuple:
    """``samples`` draws of the program's swaps from ``start`` on, as a
    sorted tuple of (image, frequency)."""
    counts = Counter(_sample_image(program, rng, start) for _ in range(samples))
    return tuple((img, Fraction(c, samples)) for img, c in sorted(counts.items()))


def _sampled_suffixes(
    program: SwapProgram, m: int, i: int, j: int, rng: SplitMix64, samples: int
) -> list:
    """The suffix distributions sampled step (i, j) reads: the deciding
    program's from swap j + 1 on, then a full one for each later program,
    and None for the i programs before it, which its conditionals pin to
    their images.  The generator runs as if every program's suffix were
    drawn in order: the deciding one first, then the others.  So the draws
    of programs before i only advance it, by their Bernoulli trials and
    with no image built, and only when a later program's draws follow."""
    tail = _empirical_suffix(program, j + 1, rng, samples)
    if i < m - 1:
        for _ in range(i * samples):
            rng.bernoulli_hits(program._probs)
    return [None] * i + [tail] + [
        _empirical_suffix(program, 0, rng, samples) for _ in range(m - 1 - i)
    ]


def _conditional_poly(coeffs: tuple[int, ...], den: int, bipartite: bool) -> RatPoly:
    """The polynomial sum_k coeffs[k] x**k / den, with x**2 substituted in
    bipartite mode."""
    poly = RatPoly.from_coeffs(Fraction(c, den) for c in coeffs)
    return poly.substitute_square() if bipartite else poly


def _spread_square(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of c(x**2) from those of c(y)."""
    out = [0] * (2 * len(coeffs) - 1)
    out[::2] = coeffs
    return tuple(out)


def _fired_wins(fired: tuple[int, ...], unfired: tuple[int, ...]) -> bool:
    """True when the fired branch's conditional has the smaller largest real
    root; ties go to the unfired branch.  Both are given by primitive integer
    coefficients with a positive leading one.

    Exact conditionals are real-rooted.  Sampled ones average over empirical
    suffix distributions, which form no interlacing family, and may have no
    real root at all: such a candidate loses, and when neither has one the
    unfired branch wins.  Proved top cells come first, read from the
    process-wide table ``_conditional_top_cell``.  A proved cell holds a
    real root, so a candidate's chain is built to count its real roots only
    when its cell is missing, and ``sturm._compare_int`` then decides from
    the cells, one chain, or, last, the chain of the product.
    """
    if fired == unfired:
        return False
    fired_cell = _conditional_top_cell(fired)
    if fired_cell is None and not _chain_from_coeffs(fired).count_all():
        return False
    unfired_cell = _conditional_top_cell(unfired)
    if unfired_cell is None and not _chain_from_coeffs(unfired).count_all():
        return True
    return _compare_int(fired, unfired, fired_cell, unfired_cell) < 0


def interlacing_descent(
    mode: str,
    d: int,
    m: int,
    strategy: str = "exact",
    seed: int = 0,
    samples_per_program: int = 8,
) -> SearchReport:
    """Fix the swaps of m uniform-permutation programs one at a time, always
    taking the branch whose conditional expectation has the smaller largest
    deflated root (see ``_fired_wins``).

    Exact strategy enumerates every remaining suffix, so each chosen
    conditional root is at most the previous one and the terminal graph
    satisfies the expected-polynomial bound; cost is exponential in d and m
    and guarded by the determinant budget.  Sampled strategy replaces each
    program's suffix by an empirical distribution of ``samples_per_program``
    draws (deterministic from the seed) and is only a heuristic.  A step
    draws only the suffixes of the deciding program and the later ones
    (``_sampled_suffixes``), and they are the draws of a step that drew
    every program's suffix in turn.

    A degree past ``graphs.MAX_SEARCH_DEGREE``, which the certificate would
    refuse, is refused first.  An exact program longer than
    ``config.MAX_SWAPS`` swaps is refused before it is built.  Then
    ``_check_descent_budget`` refuses, before the program is built, a
    descent whose draws (sampled) or whose conditionals' terms in all,
    counted by keys, exceed ``config.MAX_DET_EVALS``.
    """
    check_shape(mode, d, m)
    if strategy not in ("exact", "sampled"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    if samples_per_program < 1:
        raise ParameterError("need at least one sample per program")
    if m > MAX_SEARCH_DEGREE:
        raise BudgetError(f"degree {m} exceeds the budget of {MAX_SEARCH_DEGREE}")
    # refuse before building a program of 2**(d-1) - 1 (plain) or 2**d - 2
    # (bipartite) swaps
    n_swaps = (1 << (d - 1)) - 1 if mode == "nonbipartite" else (1 << d) - 2
    if strategy == "exact" and n_swaps > config.MAX_SWAPS:
        raise BudgetError(
            f"program has {n_swaps} swaps, budget allows {config.MAX_SWAPS}; "
            "use strategy='sampled'"
        )
    start = time.perf_counter()
    _check_descent_budget(
        mode, d, m, n_swaps, None if strategy == "exact" else samples_per_program
    )
    program = (uniform_program if mode == "nonbipartite" else bipartite_uniform_program)(d)
    identity = tuple(range(program.dimension))
    fixed: list[tuple[int, ...]] = [identity] * m
    bipartite = mode == "bipartite"
    # the trivial root: m of char(A), or m**2 of char(N N^T) in bipartite mode
    trivial = m * m if bipartite else m

    def suffixes(step: int, i: int, j: int) -> list:
        """The suffix distributions step (i, j) reads: None for the programs
        before i, pinned to their images, the deciding program's from swap
        j + 1 on, and a full one for each later program.  The initial
        conditional is step -1 at (0, -1)."""
        if strategy == "sampled":
            rng = SplitMix64(derive_seed(seed, step + 1))
            return _sampled_suffixes(program, m, i, j, rng, samples_per_program)
        full = _suffix_distribution(program, 0)
        return [None] * i + [_suffix_distribution(program, j + 1)] + [full] * (m - 1 - i)

    def conditional(images: list, dists: list) -> tuple[tuple[int, ...], int]:
        """Average over the programs still random (their suffix distribution
        in ``dists`` composed onto the prefix image), the pinned ones fixed,
        with its trivial root divided out on integers: coefficients and one
        denominator for ``_conditional_poly``.  Every term's characteristic
        polynomial has the trivial root, and x - m and y - m**2 are monic,
        so the quotient is exact."""
        acc, den = _conditional_average(mode, d, images, dists)
        return _deflate_int(acc, trivial), den

    # conditional expectation before any decision, for the descent trace
    initial = _conditional_poly(*conditional(fixed, suffixes(-1, 0, -1)), bipartite)

    steps: list[DescentStep] = []
    for step_index, (i, j) in enumerate(
        (i, j) for i in range(m) for j in range(n_swaps)
    ):
        sw = program.swaps[j]
        dists = suffixes(step_index, i, j)
        candidates = {}
        for fired in (False, True):
            img = (
                Permutation(fixed[i]).swap_values(sw.s, sw.t).image
                if fired
                else fixed[i]
            )
            trial_images = list(fixed)
            trial_images[i] = img
            coeffs, den = conditional(trial_images, dists)
            # the comparison needs only the roots: the primitive part, in x
            primitive = _int_primitive(coeffs)
            candidates[fired] = (
                img, coeffs, den, _spread_square(primitive) if bipartite else primitive
            )
        fired = _fired_wins(candidates[True][3], candidates[False][3])
        fixed[i], coeffs, den, _ = candidates[fired]
        steps.append(DescentStep(i, j, fired, _conditional_poly(coeffs, den, bipartite)))

    perms = tuple(Permutation(_union_image(mode, d, img)) for img in fixed)
    graph = MatchingUnion(mode, d, m, perms)
    cert = certify(graph)
    success = cert.verdict in (STRICT, WITH_BOUNDARY)
    return SearchReport(
        mode=mode,
        d=d,
        m=m,
        trials_run=1,
        successes=int(success),
        first_success_trial=0 if success else None,
        graph=graph,
        certificate=cert,
        wall_time=time.perf_counter() - start,
        steps=tuple(steps),
        initial_deflated=initial,
    )
