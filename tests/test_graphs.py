"""Unions of perfect matchings and exact spectral certification."""
from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffc import graphs, search, serial
from ffc import (
    BudgetError,
    ContractError,
    MatchingUnion,
    ParameterError,
    Permutation,
    QuadScalar,
    RatPoly,
    SplitMix64,
    certify,
    char_poly,
    deflate_trivial,
    float_filter,
    jacobi_eigenvalues,
    ramanujan_bound,
    rejection_search,
    sample_bipartite,
    sample_nonbipartite,
    uniform_permutation,
)
from ffc.graphs import (
    MAX_CERTIFY_SIDE,
    MAX_SAMPLE_ENTRIES,
    MAX_SEARCH_DEGREE,
    NOT_RAMANUJAN,
    STRICT,
    WITH_BOUNDARY,
    _gram,
)
from ffc.poly import to_primitive_int
from support import (
    deflate_trivial_oracle,
    fractions_st,
    grid_certify,
    grid_matrix,
    inertia_search,
    kernel_calls,
    sturm_certify,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


IDENT2 = Permutation((0, 1))
SWAP2 = Permutation((1, 0))
MIXED = MatchingUnion("bipartite", 2, 3, (IDENT2, IDENT2, SWAP2))
ALIGNED = MatchingUnion("bipartite", 2, 3, (IDENT2, IDENT2, IDENT2))


class TestConstruction:
    def test_vertex_count(self):
        assert MIXED.adjacency().nrows == 4
        g = MatchingUnion("nonbipartite", 4, 2, (Permutation.identity(4),) * 2)
        assert g.adjacency().nrows == 4

    def test_odd_side_is_rejected_for_plain_unions(self):
        with pytest.raises(ParameterError):
            MatchingUnion("nonbipartite", 3, 2, (Permutation.identity(3),) * 2)

    def test_multiplicity_mismatch_is_rejected(self):
        with pytest.raises(ParameterError):
            MatchingUnion("bipartite", 2, 3, (IDENT2, SWAP2))

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ParameterError):
            MatchingUnion("directed", 2, 2, (IDENT2, IDENT2))

    def test_mismatch_message_names_m_and_the_count(self):
        with pytest.raises(ParameterError, match=r"m = 3 needs 3 permutations, got 2"):
            MatchingUnion("bipartite", 2, 3, (IDENT2, SWAP2))

    @pytest.mark.parametrize(
        "sampler, d, m",
        [
            (sample_nonbipartite, 3, 2),
            (sample_nonbipartite, 0, 2),
            (sample_nonbipartite, 4, 0),
            (sample_bipartite, 0, 2),
            (sample_bipartite, 2, 0),
            (sample_bipartite, 2.0, 2),
        ],
    )
    def test_samplers_check_the_shape_before_drawing(self, sampler, d, m):
        rng = SplitMix64(7)
        state = rng._state
        with pytest.raises(ParameterError):
            sampler(d, m, rng)
        assert rng._state == state

    @pytest.mark.parametrize("sampler", [sample_nonbipartite, sample_bipartite])
    @pytest.mark.parametrize("d, m", [(MAX_SAMPLE_ENTRIES // 2 + 2, 2), (2, MAX_SAMPLE_ENTRIES // 2 + 1)])
    def test_samplers_refuse_oversized_unions_before_drawing(self, sampler, d, m):
        rng = SplitMix64(7)
        with pytest.raises(BudgetError, match="entries"):
            sampler(d, m, rng)
        assert rng._state == 7


class TestAdjacency:
    def test_row_sums_equal_the_multiplicity(self):
        for g in (MIXED, ALIGNED):
            adj = g.adjacency()
            assert adj.constant_row_sum() == 3
            assert adj.is_symmetric

    def test_bipartite_diagonal_blocks_vanish(self):
        adj = MIXED.adjacency()
        for i in range(2):
            for j in range(2):
                assert adj.rows[i][j] == 0
                assert adj.rows[i + 2][j + 2] == 0

    def test_mixed_spectrum(self):
        assert char_poly(MIXED.adjacency()) == poly(1, 0, -10, 0, 9)

    def test_single_matching_spectrum(self):
        g = MatchingUnion("nonbipartite", 6, 1, (Permutation.identity(6),))
        assert char_poly(g.adjacency()) == RatPoly.from_roots([1, 1, 1, -1, -1, -1])

    def test_aligned_union_is_a_multiple_of_one_matching(self):
        g = MatchingUnion(
            "nonbipartite", 4, 3, (Permutation.identity(4),) * 3
        )
        assert char_poly(g.adjacency()) == RatPoly.from_roots([3, 3, -3, -3])


class TestDeflation:
    def test_bipartite_strips_one_root_at_each_sign(self):
        p = RatPoly.from_roots([3, -3, 1, -1])
        assert deflate_trivial(p, 3, bipartite=True) == poly(1, 0, -1)

    def test_nonbipartite_strips_only_the_positive_root(self):
        p = RatPoly.from_roots([3, -3, 1, -1])
        assert deflate_trivial(p, 3, bipartite=False) == RatPoly.from_roots([-3, 1, -1])

    def test_disconnected_union_keeps_one_trivial_copy(self):
        p = RatPoly.from_roots([2, 2, -2, -2])
        assert deflate_trivial(p, 2, bipartite=False) == RatPoly.from_roots([2, -2, -2])

    def test_wrong_claimed_degree_is_rejected(self):
        with pytest.raises(ContractError):
            deflate_trivial(poly(1, 0, -1), 2, bipartite=False)

    @given(
        st.lists(st.integers(min_value=-6, max_value=6) | fractions_st(), min_size=0, max_size=6),
        st.integers(min_value=-6, max_value=36) | fractions_st(),
        st.booleans(),
    )
    def test_integer_division_matches_the_rational_one(self, roots, r, bipartite):
        p = RatPoly.from_roots(roots + [r, -r])
        assert deflate_trivial(p, r, bipartite) == deflate_trivial_oracle(p, r, bipartite)
        rest = graphs._deflate_int(to_primitive_int(p), r)
        assert RatPoly.from_coeffs(rest).monic() == deflate_trivial_oracle(p, r, bipartite=False)
        # an integer polynomial and root give integer coefficients
        assert type(r) is not int or all(type(c) is int for c in rest)

    def test_integer_division_rejects_a_missing_root(self):
        with pytest.raises(ContractError, match="no root at 4; the graph is not regular"):
            graphs._deflate_int((-1, 0, 1), 4)


class TestCertify:
    def test_mixed_triple_is_strictly_inside(self):
        cert = certify(MIXED)
        assert cert.verdict == "strictly-ramanujan"
        assert cert.is_ramanujan
        assert cert.bound == QuadScalar(0, 1, 8)
        assert cert.deflated == poly(1, 0, -1)
        assert cert.interior_count == 2
        assert cert.boundary_count == 0

    @pytest.mark.parametrize(
        "mode, d", [("nonbipartite", MAX_CERTIFY_SIDE + 2), ("bipartite", MAX_CERTIFY_SIDE + 1)]
    )
    def test_oversized_unions_are_refused_before_any_grid(self, monkeypatch, mode, d):
        def unreachable(*args):
            raise AssertionError("built a grid past the side limit")

        monkeypatch.setattr(graphs, "union_grid", unreachable)
        g = MatchingUnion(mode, d, 3, (Permutation.identity(d),) * 3)
        with pytest.raises(BudgetError, match=rf"^side {d} exceeds the budget of 256$"):
            certify(g)

    @pytest.mark.parametrize("mode", ["nonbipartite", "bipartite"])
    def test_unions_past_the_degree_limit_are_refused_before_any_grid(self, monkeypatch, mode):
        def unreachable(*args):
            raise AssertionError("built a grid past the degree limit")

        monkeypatch.setattr(graphs, "union_grid", unreachable)
        m = MAX_SEARCH_DEGREE + 1
        g = MatchingUnion(mode, 4, m, (Permutation.identity(4),) * m)
        with pytest.raises(BudgetError, match=rf"^degree {m} exceeds the budget of 32$"):
            certify(g)

    @pytest.mark.parametrize("sampler", [sample_bipartite, sample_nonbipartite])
    def test_a_union_at_the_degree_limit_is_certified(self, sampler):
        g = sampler(8, MAX_SEARCH_DEGREE, SplitMix64(1))
        assert certify(g).verdict in ("strictly-ramanujan", "not-ramanujan")

    @pytest.mark.parametrize("sampler", [sample_bipartite, sample_nonbipartite])
    def test_a_union_at_the_side_limit_is_certified(self, sampler):
        g = sampler(MAX_CERTIFY_SIDE, 3, SplitMix64(1))
        assert certify(g).verdict in ("strictly-ramanujan", "not-ramanujan")

    def test_aligned_triple_fails(self):
        cert = certify(ALIGNED)
        assert cert.verdict == "not-ramanujan"
        assert not cert.is_ramanujan

    def test_aligned_pair_touches_the_boundary(self):
        g = MatchingUnion("nonbipartite", 4, 2, (Permutation.identity(4),) * 2)
        cert = certify(g)
        assert cert.verdict == "ramanujan-with-boundary"
        assert cert.interior_count + cert.boundary_count == cert.deflated.degree

    def test_four_cycle(self):
        g = MatchingUnion("nonbipartite", 4, 2, (Permutation.identity(4), Permutation((0, 2, 1, 3))))
        cert = certify(g)
        assert cert.char_poly == poly(1, 0, -4, 0, 0)
        assert cert.verdict == "ramanujan-with-boundary"
        assert cert.interior_count == 2
        assert cert.boundary_count == 1

    def test_single_matching_is_vacuous_on_one_pair(self):
        g = MatchingUnion("bipartite", 1, 1, (Permutation((0,)),))
        cert = certify(g)
        assert cert.deflated.degree == 0
        assert cert.verdict == "strictly-ramanujan"

    def test_single_bipartite_matching_on_two_pairs_fails(self):
        g = MatchingUnion("bipartite", 2, 1, (IDENT2,))
        cert = certify(g)
        assert cert.verdict == "not-ramanujan"


def sampler(mode):
    return sample_bipartite if mode == "bipartite" else sample_nonbipartite


SMALL_CASES = [
    (mode, d, m)
    for mode, ds in (("bipartite", (1, 2, 3, 4, 6, 8)), ("nonbipartite", (2, 4, 6, 8, 12)))
    for d in ds
    for m in (1, 2, 3, 4)
]
LARGE_CASES = [
    ("bipartite", 20, 3),
    ("bipartite", 16, 4),
    ("nonbipartite", 24, 3),
    ("nonbipartite", 16, 4),
]


class TestCertifyAgainstSturmOracle:
    """The squared-spectrum certifier against the Sturm-count certifier it
    replaced: identical certificates, field by field."""

    def test_sampled_unions(self):
        verdicts = Counter()
        for seed in range(6 * len(SMALL_CASES)):
            mode, d, m = SMALL_CASES[seed % len(SMALL_CASES)]
            g = sampler(mode)(d, m, SplitMix64(seed))
            cert = certify(g)
            assert cert == sturm_certify(g), (mode, d, m, seed)
            verdicts[cert.verdict] += 1
        for seed, (mode, d, m) in enumerate(LARGE_CASES * 2):
            g = sampler(mode)(d, m, SplitMix64(seed))
            assert certify(g) == sturm_certify(g), (mode, d, m, seed)
        assert set(verdicts) == {STRICT, WITH_BOUNDARY, NOT_RAMANUJAN}

    def test_bipartite_boundary_cases(self):
        verdicts = Counter()
        for seed in range(100):
            g = sample_bipartite(4, 2, SplitMix64(seed))
            cert = certify(g)
            assert cert == sturm_certify(g), seed
            verdicts[cert.verdict] += 1
        assert verdicts[WITH_BOUNDARY] >= 50

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_disconnected_unions(self, m):
        split = Permutation((1, 0, 3, 2))  # keeps {0, 1} and {2, 3} apart
        for mode in ("bipartite", "nonbipartite"):
            for perms in ((Permutation.identity(4),) * m, (split,) * m):
                g = MatchingUnion(mode, 4, m, perms)
                cert = certify(g)
                assert cert == sturm_certify(g)
                # one copy of the trivial eigenvalue m survives deflation
                assert cert.deflated(Fraction(m)) == 0
                assert cert.verdict == (WITH_BOUNDARY if m == 2 else NOT_RAMANUJAN)


class TestSampling:
    def test_nonbipartite_shape(self):
        rng = SplitMix64(11)
        g = sample_nonbipartite(4, 3, rng)
        assert g.mode == "nonbipartite"
        assert g.adjacency().constant_row_sum() == 3

    def test_bipartite_shape(self):
        rng = SplitMix64(11)
        g = sample_bipartite(3, 2, rng)
        assert g.mode == "bipartite"
        assert g.adjacency().nrows == 6
        assert g.adjacency().constant_row_sum() == 2

    def test_single_matching_spectrum(self):
        rng = SplitMix64(2)
        g = sample_nonbipartite(6, 1, rng)
        assert char_poly(g.adjacency()) == RatPoly.from_roots([1, 1, 1, -1, -1, -1])


class TestFloatFilter:
    def test_aligned_case_sits_at_the_trivial_value(self):
        assert float_filter(ALIGNED) == pytest.approx(3.0, abs=1e-8)

    def test_mixed_case(self):
        assert float_filter(MIXED) == pytest.approx(1.0, abs=1e-8)

    def test_jacobi_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sym = rng.integers(-4, 5, size=(5, 5))
            sym = sym + sym.T
            mine, converged = jacobi_eigenvalues([[int(v) for v in row] for row in sym])
            ref = np.linalg.eigvalsh(sym.astype(float))
            assert converged
            assert np.allclose(mine, ref, atol=1e-8)

    def test_lowest_eigenvalue_alone_can_skip(self):
        margin = 1e-6  # the skip margin of the retired search screen
        g = sample_nonbipartite(12, 3, SplitMix64(3))
        bound_f = float(ramanujan_bound(3))
        eigs, converged = jacobi_eigenvalues(g.grid())
        assert converged
        assert eigs[-2] < bound_f + margin
        assert eigs[0] < -bound_f - margin
        assert float_filter(g) > bound_f + margin
        assert certify(g).verdict == NOT_RAMANUJAN

    def test_agrees_with_the_exact_verdict_away_from_the_margin(self):
        rng = SplitMix64(77)
        bound = ramanujan_bound(3)
        bound_f = float(bound)
        checked = 0
        for _ in range(1000):
            g = sample_bipartite(2, 3, rng)
            approx = float_filter(g)
            if abs(approx - bound_f) <= 1e-6:
                continue
            checked += 1
            cert = certify(g)
            if approx > bound_f:
                assert cert.verdict == "not-ramanujan"
            else:
                assert cert.is_ramanujan
        assert checked > 900


def _timeless(report):
    return dataclasses.replace(report, wall_time=0.0)


def disjoint_union(mode, d, m, rng):
    """A union whose matchings each keep the halves of {0, ..., d-1}
    apart, so it is disconnected and its eigenvalue m is repeated."""
    h = d // 2
    perms = []
    for _ in range(m):
        left, right = uniform_permutation(h, rng), uniform_permutation(h, rng)
        perms.append(Permutation(left.image + tuple(h + v for v in right.image)))
    return MatchingUnion(mode, d, m, tuple(perms))


def dense_terms(g):
    """<x, M**k x> for k < 2(d - 1), M the grid (plain) or its Gram matrix
    (bipartite), by dense products."""
    rows = g.grid() if g.mode == "nonbipartite" else _gram(g.grid())
    x = y = graphs._start_vector(g.d)
    out = []
    for _ in range(2 * (g.d - 1)):
        out.append(sum(a * b for a, b in zip(x, y)))
        y = [sum(a * b for a, b in zip(row, y)) for row in rows]
    return out


class TestUnionTerms:
    def test_start_vector_is_orthogonal_to_the_ones_vector(self):
        assert graphs._start_vector(1) == [0]
        for n in range(2, MAX_CERTIFY_SIDE + 1):
            x = graphs._start_vector(n)
            assert sum(x) == 0 and any(x), n

    @pytest.mark.parametrize("mode", ["bipartite", "nonbipartite"])
    def test_terms_are_the_krylov_sequence_of_the_grid(self, mode):
        rng = SplitMix64(41)
        for d in range(2, 15, 2):
            for m in (1, 2, 3, 5):
                g = sampler(mode)(d, m, rng)
                assert list(graphs.union_terms(g)) == dense_terms(g), (mode, d, m)

    def test_a_one_point_side_has_no_terms(self):
        g = MatchingUnion("bipartite", 1, 1, (Permutation((0,)),))
        assert list(graphs.union_terms(g)) == [] == graphs.witnessed_terms(g)

    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_sparse_gram_matches_the_dense_product(self, n):
        assert _gram(n) == [[sum(a * b for a, b in zip(ri, rj)) for rj in n] for ri in n]


class TestRayleighWitness:
    """The exact Rayleigh witness against the grid certificate: it rejects
    only unions that are not Ramanujan."""

    def check(self, g) -> bool:
        """Whether the witness rejects g, after checking it against the
        oracle certificate."""
        terms = graphs.witnessed_terms(g)
        exact = grid_certify(g).verdict
        if terms is None:
            assert exact == NOT_RAMANUJAN, (g.mode, g.d, g.m, g.perms)
        else:
            assert terms == list(graphs.union_terms(g))
        return terms is None

    def test_every_bipartite_d4_m2_pair_passes(self):
        images = [Permutation(p) for p in permutations(range(4))]
        verdicts = Counter()
        for p in images:
            for q in images:
                g = MatchingUnion("bipartite", 4, 2, (p, q))
                assert not self.check(g)
                verdicts[grid_certify(g).verdict] += 1
        assert verdicts[WITH_BOUNDARY] > 0 and verdicts[STRICT] > 0

    def test_plain_m2_unions_pass(self):
        images = [Permutation(p) for p in permutations(range(4))]
        for p in images:
            for q in images:
                assert not self.check(MatchingUnion("nonbipartite", 4, 2, (p, q)))
        rng = SplitMix64(7)
        for d in range(6, 41, 2):
            for _ in range(5):
                assert not self.check(sample_nonbipartite(d, 2, rng))
                assert not self.check(disjoint_union("nonbipartite", 4 * (d // 4), 2, rng))

    def test_plain_m1_unions_are_rejected(self):
        # a single matching has eigenvalues +-1 past the bound 0
        for d in range(2, 41, 2):
            g = sample_nonbipartite(d, 1, SplitMix64(d))
            assert self.check(g), d

    def test_sampled_unions(self):
        rng = SplitMix64(2026)
        seen = Counter()
        for mode, ds in (("bipartite", range(1, 25)), ("nonbipartite", range(2, 33, 2))):
            for d in ds:
                for m in range(1, 6):
                    for _ in range(3):
                        g = sampler(mode)(d, m, rng)
                        seen[self.check(g), grid_certify(g).verdict] += 1
        assert sum(seen.values()) == 600
        assert not seen[True, STRICT] and not seen[True, WITH_BOUNDARY]
        assert seen[True, NOT_RAMANUJAN] >= 100 and seen[False, STRICT] >= 100

    def test_a_rejection_stops_the_pass(self, monkeypatch):
        consumed = []

        def counted(g):
            consumed.append(0)
            for s in real(g):
                consumed[-1] += 1
                yield s

        real = graphs.union_terms
        monkeypatch.setattr(graphs, "union_terms", counted)
        rng = SplitMix64(5)
        short = 0
        for _ in range(40):
            g = sample_bipartite(20, 3, rng)
            if graphs.witnessed_terms(g) is None:
                short += consumed[-1] < 2 * (g.d - 1)
            else:
                assert consumed[-1] == 2 * (g.d - 1)
        assert short > 0


class TestSharedTerms:
    """``certify`` from the union's Krylov terms against the grid
    certificate it replaced."""

    def test_sampled_unions_match_the_grid_certificate(self):
        rng = SplitMix64(99)
        with kernel_calls() as routes:
            for mode, ds in (("bipartite", range(1, 41)), ("nonbipartite", range(2, 41, 2))):
                for d in ds:
                    for m in range(1, 6):
                        g = sampler(mode)(d, m, rng)
                        assert certify(g) == grid_certify(g), (mode, d, m, g.perms)
        assert routes["_complete_by_traces"] > 0 and routes["_hessenberg_mod"] > 0

    def test_fixed_unions(self):
        one = MatchingUnion("bipartite", 1, 1, (Permutation((0,)),))
        for g in (ALIGNED, MIXED, one):
            assert certify(g) == grid_certify(g)
        assert certify(one).verdict == STRICT

    def test_the_terms_the_caller_holds_are_used(self, monkeypatch):
        g = sample_bipartite(20, 3, SplitMix64(3))
        terms = list(graphs.union_terms(g))
        monkeypatch.setattr(graphs, "union_terms", lambda g: pytest.fail("terms recomputed"))
        assert certify(g, terms) == grid_certify(g)

    def test_a_zero_start_vector(self, monkeypatch):
        monkeypatch.setattr(graphs, "_start_vector", lambda n: [0] * n)
        rng = SplitMix64(12)
        with kernel_calls() as routes:
            for mode, ds in (("bipartite", range(1, 15)), ("nonbipartite", range(2, 15, 2))):
                for d in ds:
                    for m in (1, 2, 3):
                        g = sampler(mode)(d, m, rng)
                        assert set(graphs.union_terms(g)) <= {0}
                        assert certify(g) == grid_certify(g), (mode, d, m)
        # only the trivial factor is known: sides 2 and 3 are completed
        # from traces, and the rest go to Hessenberg
        assert routes["_complete_by_traces"] > 0 and routes["_hessenberg_mod"] > 0

    @pytest.mark.parametrize("mode", ["bipartite", "nonbipartite"])
    def test_disconnected_and_derogatory_unions_take_the_ladder(self, mode):
        rng = SplitMix64(17)
        unions = [disjoint_union(mode, d, m, rng) for d in (8, 12, 16, 24) for m in (2, 3, 4)]
        # every matching the same one: M is m (or m**2) times a matching's
        unions += [
            MatchingUnion(mode, d, m, (uniform_permutation(d, rng),) * m)
            for d in (4, 8, 12) for m in (2, 3)
        ]
        with kernel_calls() as routes:
            for g in unions:
                assert certify(g) == grid_certify(g), (g.d, g.m, g.perms)
        assert routes["_complete_by_traces"] > 0 and routes["_hessenberg_mod"] > 0


class TestRejectionSearch:
    def test_reports_match_the_inertia_search(self):
        for mode in ("bipartite", "nonbipartite"):
            for d in (10, 12, 20, 24):
                for m in (2, 3, 4):
                    for allow in (False, True):
                        for seed in range(5):
                            got = rejection_search(mode, d, m, 50, seed, allow_boundary=allow)
                            want = inertia_search(mode, d, m, 50, seed, allow_boundary=allow)
                            assert _timeless(got) == want, (mode, d, m, allow, seed)
                            assert serial.dumps(serial.search_report_to_obj(got, seed)) == (
                                serial.dumps(serial.search_report_to_obj(want, seed))
                            )

    def test_certify_gets_every_trial_the_witness_passes(self, monkeypatch):
        witnessed, certified = [], []

        def witness(g):
            witnessed.append(graphs.witnessed_terms(g))
            return witnessed[-1]

        monkeypatch.setattr(search, "witnessed_terms", witness)
        monkeypatch.setattr(search, "certify", lambda g, t: certified.append(t) or certify(g, t))
        report = rejection_search("bipartite", 20, 3, 100, 0)
        assert len(witnessed) == report.trials_run
        assert certified == [t for t in witnessed if t is not None]
        assert None in witnessed
        # m = 2 puts the trivial eigenvalue on the bound: the witness never
        # fires, and every trial is certified
        witnessed.clear()
        certified.clear()
        boundary = rejection_search("bipartite", 4, 2, 100, 0, allow_boundary=True)
        assert boundary.certificate.verdict == WITH_BOUNDARY
        assert len(certified) == boundary.trials_run == len(witnessed)
        # the Jacobi sweep cap does not reach the search
        monkeypatch.setattr(graphs, "_JACOBI_SWEEPS", 0)
        assert _timeless(rejection_search("bipartite", 20, 3, 100, 0)) == _timeless(report)

    @pytest.mark.parametrize("mode, d", [("bipartite", 10), ("nonbipartite", 12)])
    def test_search_uses_no_float(self, monkeypatch, mode, d):
        expected = rejection_search(mode, d, 3, 200, 5)

        def refuse(*args):
            raise AssertionError("the search called a float eigensolver")

        monkeypatch.setattr(search, "float_filter", refuse)
        monkeypatch.setattr(graphs, "jacobi_eigenvalues", refuse)
        assert _timeless(rejection_search(mode, d, 3, 200, 5)) == _timeless(expected)
        assert expected.successes == 1
