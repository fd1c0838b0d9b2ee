"""Search strategies that produce certified Ramanujan matching unions.

Two routes.  ``rejection_search`` samples unions of uniform matchings,
screens them with the float eigensolver, and certifies survivors exactly;
existence holds with nonzero probability, so exhausting the trial budget is
reported rather than raised.  ``interlacing_descent`` walks the random-swap
programs realizing the uniform distribution and greedily fixes each swap to
the branch whose conditional expected characteristic polynomial has the
smaller largest nontrivial root.  Each conditional is one call of
``quadrature.weighted_charpoly_average`` over the per-program suffix
distributions, with characteristic polynomials cached by image multiset.  In
exact strategy the conditionals are full leaf enumerations and the greedy
choice provably never increases that root, so the terminal graph beats the
expected polynomial; this is exponential and meant for tiny sizes.  The
sampled strategy substitutes per-program empirical suffix distributions.
These are not products of independent swaps, so the averages form no
interlacing family and need not be real-rooted, or have any real root; the
strategy offers no guarantee.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .config import DEFAULT_BUDGETS, Budgets
from .convolution import m_fold_asym, m_fold_sym
from .errors import BudgetError, ParameterError
from .graphs import (
    MODES,
    STRICT,
    WITH_BOUNDARY,
    MatchingUnion,
    RamanujanCertificate,
    certify,
    deflate_trivial,
    float_filter,
    matching_grid,
    sample_bipartite,
    sample_nonbipartite,
)
from .matrix import RatMatrix, _grid_sum, charpoly_int_coeffs, dilation
from .perms import (
    Permutation,
    SwapProgram,
    bipartite_uniform_program,
    leaf_distribution,
    relabel_grid,
    sample,
    uniform_program,
)
from .poly import RatPoly
from .quadrature import weighted_charpoly_average
from .rng import SplitMix64, derive_seed
from .sturm import compare_max_roots, sturm_chain
from .transforms import (
    bip_matching_nontrivial_poly,
    matching_nontrivial_poly,
    ramanujan_bound,
)

# float pre-screen may only skip clear failures, never decide successes
FLOAT_SKIP_MARGIN = 1e-6


def expected_poly_for_graph_model(mode: str, d: int, m: int) -> RatPoly:
    """Expected characteristic polynomial of a union of m uniform matchings.

    Closed form via the convolution identities: the trivial roots times the
    m-fold additive convolution of the single-matching nontrivial polynomial
    (symmetric kind on d vertices; rectangular kind, squared back up, for
    the bipartite model on d + d vertices).
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if m < 1:
        raise ParameterError("need at least one matching")
    if mode == "nonbipartite":
        conv = m_fold_sym(matching_nontrivial_poly(d), m, d - 1)
        return RatPoly.from_roots([Fraction(m)]) * conv
    conv = m_fold_asym(bip_matching_nontrivial_poly(d), m, d - 1)
    return RatPoly.from_roots([Fraction(m), Fraction(-m)]) * conv.substitute_square()


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
    and its graph are reproducible.  The float filter only skips samples
    with a nontrivial eigenvalue clearly outside the bound, and only when its
    eigensolver converged; every returned success carries an exact
    certificate.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if max_trials < 1:
        raise ParameterError("need at least one trial")
    start = time.perf_counter()
    bound_f = float(ramanujan_bound(m)) if m >= 2 else 0.0
    sampler = sample_bipartite if mode == "bipartite" else sample_nonbipartite
    for trial in range(max_trials):
        rng = SplitMix64(derive_seed(seed, trial))
        g = sampler(d, m, rng)
        if g.n_vertices > 2:
            screened = float_filter(g)
            if screened is not None and screened > bound_f + FLOAT_SKIP_MARGIN:
                continue
        cert = certify(g)
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
    sorted tuple of (image, probability)."""
    tail = SwapProgram(program.dimension, program.swaps[start:])
    dist = leaf_distribution(tail)
    return tuple(sorted((p.image, pr) for p, pr in dist.items()))


def _compose_images(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[v] for v in inner)


class _ConditionalAverager:
    """Exact average of char(sum_i Q_i M Q_i^T) over per-program image
    distributions, with a cache keyed by the image multiset."""

    def __init__(self, base_grid: list[list[int]], budgets: Budgets) -> None:
        self.base = base_grid
        self.budgets = budgets
        self.det_evals = 0
        self._cache: dict[tuple, tuple] = {}

    def _charpoly(self, images: tuple[tuple[int, ...], ...]) -> tuple:
        key = tuple(sorted(images))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        total = _grid_sum([relabel_grid(self.base, img) for img in images])
        coeffs = charpoly_int_coeffs(total)
        self._cache[key] = coeffs
        return coeffs

    def average(self, dists: list[dict[tuple[int, ...], Fraction]]) -> RatPoly:
        try:
            poly, terms = weighted_charpoly_average(
                [dist.items() for dist in dists],
                self._charpoly,
                self.budgets.max_det_evals - self.det_evals,
            )
        except BudgetError as exc:
            raise BudgetError(f"conditional {exc}; use strategy='sampled'") from None
        self.det_evals += terms
        return poly


def _fired_wins(fired: RatPoly, unfired: RatPoly) -> bool:
    """True when the fired branch's conditional has the smaller largest real
    root; ties go to the unfired branch.

    Exact conditionals are real-rooted.  Sampled ones average over empirical
    suffix distributions, which form no interlacing family, and may have no
    real root at all: such a candidate loses, and when neither has one the
    unfired branch wins.
    """
    fired_real = sturm_chain(fired).count_all() > 0
    if fired_real and sturm_chain(unfired).count_all() > 0:
        return compare_max_roots(fired, unfired) < 0
    return fired_real


def interlacing_descent(
    mode: str,
    d: int,
    m: int,
    strategy: str = "exact",
    seed: int = 0,
    samples_per_program: int = 8,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> SearchReport:
    """Fix the swaps of m uniform-permutation programs one at a time, always
    taking the branch whose conditional expectation has the smaller largest
    deflated root (see ``_fired_wins``).

    Exact strategy enumerates every remaining suffix, so each chosen
    conditional root is at most the previous one and the terminal graph
    satisfies the expected-polynomial bound; cost is exponential in d and m
    and guarded by the determinant budget.  Sampled strategy replaces each
    program's suffix by an empirical distribution of ``samples_per_program``
    draws (deterministic from the seed) and is only a heuristic.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if strategy not in ("exact", "sampled"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    if m < 1:
        raise ParameterError("need at least one matching")
    if samples_per_program < 1:
        raise ParameterError("need at least one sample per program")
    start = time.perf_counter()
    if mode == "nonbipartite":
        program = uniform_program(d)  # validates d
        if d % 2:
            raise ParameterError("nonbipartite mode needs an even vertex count")
        base = matching_grid(d)
    else:
        program = bipartite_uniform_program(d)
        base = dilation(RatMatrix.identity(d)).int_rows()
    averager = _ConditionalAverager(base, budgets)
    identity = tuple(range(len(base)))
    fixed: list[tuple[int, ...]] = [identity] * m

    def effective(
        dist: tuple, onto: tuple[int, ...]
    ) -> dict[tuple[int, ...], Fraction]:
        out: dict[tuple[int, ...], Fraction] = {}
        for img, pr in dist:
            out[_compose_images(img, onto)] = pr
        return out

    def exact_suffix(start_index: int) -> tuple:
        try:
            return _suffix_distribution(program, start_index)
        except BudgetError as exc:
            raise BudgetError(f"{exc}; use strategy='sampled'") from None

    def empirical_suffix(start_index: int, rng: SplitMix64) -> tuple:
        tail = SwapProgram(program.dimension, program.swaps[start_index:])
        counts = Counter(sample(tail, rng).image for _ in range(samples_per_program))
        return tuple(
            (img, Fraction(c, samples_per_program)) for img, c in sorted(counts.items())
        )

    def conditional(deciding: int, images: list) -> RatPoly:
        """Average over programs >= ``deciding`` still random (their current
        suffix composed onto the prefix image), earlier ones fully fixed."""
        dists = []
        for k in range(m):
            if k < deciding:
                dists.append({images[k]: Fraction(1)})
            else:
                dists.append(effective(step_dists[k], images[k]))
        return averager.average(dists)

    # conditional expectation before any decision, for the descent trace
    if strategy == "exact":
        step_dists = [exact_suffix(0) for _ in range(m)]
    else:
        rng0 = SplitMix64(derive_seed(seed, 0))
        step_dists = [empirical_suffix(0, rng0) for _ in range(m)]
    bipartite = mode == "bipartite"
    initial = deflate_trivial(conditional(-1, fixed), m, bipartite)

    steps: list[DescentStep] = []
    previous = initial
    n_swaps = len(program.swaps)
    for step_index, (i, j) in enumerate(
        (i, j) for i in range(m) for j in range(n_swaps)
    ):
        sw = program.swaps[j]
        if strategy == "exact":
            tail = exact_suffix(j + 1)
            step_dists = [tail if k == i else exact_suffix(0) for k in range(m)]
        else:
            rng_step = SplitMix64(derive_seed(seed, step_index + 1))
            tail = empirical_suffix(j + 1, rng_step)
            step_dists = [
                tail if k == i else empirical_suffix(0, rng_step) for k in range(m)
            ]
        candidates = {}
        for fired in (False, True):
            img = (
                Permutation(fixed[i]).swap_values(sw.s, sw.t).image
                if fired
                else fixed[i]
            )
            trial_images = list(fixed)
            trial_images[i] = img
            poly = conditional(i, trial_images)
            candidates[fired] = (img, deflate_trivial(poly, m, bipartite))
        fired = _fired_wins(candidates[True][1], candidates[False][1])
        fixed[i] = candidates[fired][0]
        previous = candidates[fired][1]
        steps.append(DescentStep(i, j, fired, previous))

    if mode == "nonbipartite":
        perms = tuple(Permutation(img) for img in fixed)
    else:
        perms = []
        for img in fixed:
            left = Permutation(img[:d])
            right = Permutation(tuple(v - d for v in img[d:]))
            perms.append(left.compose(right.inverse()))
        perms = tuple(perms)
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
