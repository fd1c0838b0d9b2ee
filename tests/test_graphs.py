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

from ffc import graphs, search
from ffc import (
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
    matching_grid,
    ramanujan_bound,
    rejection_search,
    sample_bipartite,
    sample_nonbipartite,
)
from ffc.graphs import NOT_RAMANUJAN, STRICT, WITH_BOUNDARY, _gram, inertia_verdict
from ffc.poly import to_primitive_int
from support import grid_matrix, sturm_certify


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


IDENT2 = Permutation((0, 1))
SWAP2 = Permutation((1, 0))
MIXED = MatchingUnion("bipartite", 2, 3, (IDENT2, IDENT2, SWAP2))
ALIGNED = MatchingUnion("bipartite", 2, 3, (IDENT2, IDENT2, IDENT2))


class TestConstruction:
    def test_vertex_count(self):
        assert MIXED.n_vertices == 4
        g = MatchingUnion("nonbipartite", 4, 2, (Permutation.identity(4),) * 2)
        assert g.n_vertices == 4

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
        st.lists(st.integers(min_value=-6, max_value=6), min_size=0, max_size=6),
        st.integers(min_value=-6, max_value=36),
    )
    def test_integer_division_matches_the_rational_one(self, roots, r):
        p = RatPoly.from_roots(roots + [r])
        rest = graphs._deflate_int(to_primitive_int(p), r)
        assert RatPoly.from_coeffs(rest) == deflate_trivial(p, r, bipartite=False)

    def test_integer_division_rejects_a_missing_root(self):
        with pytest.raises(ContractError, match="no root at 4; the graph is not regular"):
            graphs._deflate_int((-1, 0, 1), 4)


class TestCertify:
    def test_mixed_triple_is_strictly_inside(self):
        cert = certify(MIXED)
        assert cert.verdict == "strictly-ramanujan"
        assert cert.is_ramanujan
        assert cert.bound == QuadScalar.sqrt_int(8)
        assert cert.deflated == poly(1, 0, -1)
        assert cert.interior_count == 2
        assert cert.boundary_count == 0

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
        assert g.n_vertices == 6
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


class _WatchedRow(list):
    """Grid row that counts its writes."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


class TestInertiaVerdict:
    """The Bareiss inertia test against the certificate it stands in for."""

    def test_sampled_unions_agree_with_certify(self):
        rng = SplitMix64(2026)
        seen = Counter()
        for mode, ds in (("bipartite", range(1, 13)), ("nonbipartite", range(2, 17, 2))):
            for d in ds:
                for m in range(1, 6):
                    for _ in range(4):
                        g = sampler(mode)(d, m, rng)
                        verdict, exact = inertia_verdict(g), certify(g).verdict
                        seen[verdict, exact] += 1
                        if verdict is not None:
                            assert verdict == exact, (mode, d, m, g.perms)
                        if exact == WITH_BOUNDARY or m == 2:
                            assert verdict is None, (mode, d, m, g.perms)
        assert sum(seen.values()) == 400
        assert {exact for _, exact in seen} == {STRICT, WITH_BOUNDARY, NOT_RAMANUJAN}
        assert seen[STRICT, STRICT] >= 100 and seen[NOT_RAMANUJAN, NOT_RAMANUJAN] >= 100

    def test_every_bipartite_boundary_case_falls_back(self):
        images = [Permutation(p) for p in permutations(range(4))]
        verdicts = Counter()
        for p in images:
            for q in images:
                g = MatchingUnion("bipartite", 4, 2, (p, q))
                assert inertia_verdict(g) is None
                verdicts[certify(g).verdict] += 1
        assert verdicts[WITH_BOUNDARY] > 0

    def test_small_fixed_unions(self):
        assert inertia_verdict(MIXED) == STRICT
        assert inertia_verdict(ALIGNED) == NOT_RAMANUJAN
        assert inertia_verdict(MatchingUnion("bipartite", 1, 1, (Permutation((0,)),))) == STRICT

    def test_second_positive_pivot_stops_the_elimination(self, monkeypatch):
        # a full elimination writes the last row once for the shift by
        # 4(m-1) and once per earlier pivot
        grids = []

        def watched(n):
            grids.append([_WatchedRow(row) for row in _gram(n)])
            return grids[-1]

        monkeypatch.setattr(graphs, "_gram", watched)
        early = 0
        for seed in range(20):
            g = sample_bipartite(12, 3, SplitMix64(seed))
            verdict = inertia_verdict(g)
            last = grids[-1][-1]
            if verdict == NOT_RAMANUJAN and last.writes < len(grids[-1]):
                early += 1
            assert verdict == certify(g).verdict
        assert early > 0

    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_sparse_gram_matches_the_dense_product(self, n):
        assert _gram(n) == [[sum(a * b for a, b in zip(ri, rj)) for rj in n] for ri in n]

    def test_search_certifies_only_successes_and_fallbacks(self, monkeypatch):
        certified = []
        monkeypatch.setattr(search, "certify", lambda g: certified.append(g) or certify(g))
        decided = rejection_search("bipartite", 10, 3, 100, 0)
        assert decided.fallbacks == 0
        assert len(certified) == decided.successes + decided.fallbacks == 1
        # m = 2 puts the trivial eigenvalue on the bound: every trial falls
        # back, and the returned one is among the fallbacks
        certified.clear()
        boundary = rejection_search("bipartite", 4, 2, 100, 0, allow_boundary=True)
        assert boundary.certificate.verdict == WITH_BOUNDARY
        assert len(certified) == boundary.fallbacks == boundary.trials_run
        # the Jacobi sweep cap no longer reaches the search
        monkeypatch.setattr(graphs, "_JACOBI_SWEEPS", 0)
        certified.clear()
        capped = rejection_search("bipartite", 10, 3, 100, 0)
        assert len(certified) == 1
        assert _timeless(capped) == _timeless(decided)

    @pytest.mark.parametrize("mode, d", [("bipartite", 10), ("nonbipartite", 12)])
    def test_search_uses_no_float(self, monkeypatch, mode, d):
        expected = rejection_search(mode, d, 3, 200, 5)

        def refuse(*args):
            raise AssertionError("the search called a float eigensolver")

        monkeypatch.setattr(search, "float_filter", refuse)
        monkeypatch.setattr(graphs, "jacobi_eigenvalues", refuse)
        assert _timeless(rejection_search(mode, d, 3, 200, 5)) == _timeless(expected)
        assert expected.successes == 1
