"""Random search and derandomized descent for certified expander unions."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from ffc import (
    Budgets,
    BudgetError,
    MatchingUnion,
    Permutation,
    RatMatrix,
    RatPoly,
    certify,
    char_poly,
    bipartite_uniform_program,
    compare_max_roots,
    dilation,
    expected_poly_for_graph_model,
    interlacing_descent,
    matching_grid,
    m_fold_asym,
    rejection_search,
    relabel_grid,
)
from ffc.search import _fired_wins
from support import grid_matrix


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


def perms_of(d):
    return [Permutation(im) for im in itertools.permutations(range(d))]


class TestExpectedPolyModel:
    def test_plain_union_of_two_matchings(self):
        base = matching_grid(4)
        total = RatPoly.zero()
        for p in perms_of(4):
            shifted = relabel_grid(base, p.image)
            summed = [
                [Fraction(base[i][j] + shifted[i][j]) for j in range(4)]
                for i in range(4)
            ]
            total = total + char_poly(RatMatrix.from_rows(tuple(map(tuple, summed))))
        avg = total.scale(Fraction(1, 24))
        assert expected_poly_for_graph_model("nonbipartite", 4, 2) == avg

    def test_bipartite_union_of_two_matchings(self):
        ident = RatMatrix.identity(3)
        total = RatPoly.zero()
        pairs = 0
        for p in perms_of(3):
            for s in perms_of(3):
                shift = p.compose(s.inverse())
                grid = [[Fraction(ident.rows[i][j]) for j in range(3)] for i in range(3)]
                for i in range(3):
                    grid[shift.image[i]][i] += 1
                total = total + char_poly(dilation(RatMatrix.from_rows(tuple(map(tuple, grid)))))
                pairs += 1
        avg = total.scale(Fraction(1, pairs))
        assert expected_poly_for_graph_model("bipartite", 3, 2) == avg

    def test_three_bipartite_matchings_on_two_pairs(self):
        assert expected_poly_for_graph_model("bipartite", 2, 3) == poly(1, 0, -12, 0, 27)

    def test_single_matching_is_deterministic(self):
        assert expected_poly_for_graph_model("nonbipartite", 4, 1) == RatPoly.from_roots([1, 1, -1, -1])
        assert expected_poly_for_graph_model("bipartite", 3, 1) == RatPoly.from_roots([1, 1, 1, -1, -1, -1])

    def test_matches_the_fold_of_the_matching_polynomial(self):
        direct = expected_poly_for_graph_model("bipartite", 3, 2)
        folded = m_fold_asym(RatPoly.from_roots([1, 1]), 2, 2)
        assert direct == poly(1, 0, -4) * folded.substitute_square()


class TestRejectionSearch:
    def test_small_bipartite_case_succeeds_quickly(self):
        report = rejection_search("bipartite", 2, 3, 100, seed=5)
        assert report.certificate is not None
        assert report.certificate.verdict == "strictly-ramanujan"
        assert report.successes == 1
        assert report.trials_run == report.first_success_trial + 1

    def test_exhaustive_small_count(self):
        wins = 0
        for images in itertools.product(perms_of(2), repeat=3):
            g = MatchingUnion("bipartite", 2, 3, tuple(images))
            if certify(g).verdict == "strictly-ramanujan":
                wins += 1
        assert wins == 6

    def test_reports_are_reproducible(self):
        a = rejection_search("bipartite", 3, 3, 50, seed=21)
        b = rejection_search("bipartite", 3, 3, 50, seed=21)
        assert a.graph == b.graph
        assert a.first_success_trial == b.first_success_trial

    def test_certificates_reverify_standalone(self):
        report = rejection_search("bipartite", 4, 3, 200, seed=9)
        fresh = certify(report.graph)
        assert fresh.verdict == report.certificate.verdict == "strictly-ramanujan"

    def test_exhausted_budget_reports_no_graph(self):
        # every union of three matchings on a single edge pair is aligned
        report = rejection_search("nonbipartite", 2, 3, 5, seed=1)
        assert report.graph is None
        assert report.certificate is None
        assert report.trials_run == 5
        assert report.successes == 0
        assert report.first_success_trial is None


class TestInterlacingDescent:
    def test_smallest_bipartite_case(self):
        report = interlacing_descent("bipartite", 2, 3)
        cert = report.certificate
        assert cert is not None and cert.is_ramanujan
        assert len(report.steps) == 6
        assert compare_max_roots(cert.deflated, report.initial_deflated) <= 0

    def test_descent_never_raises_the_top_root(self):
        report = interlacing_descent("bipartite", 2, 3)
        seq = [report.initial_deflated] + [s.deflated for s in report.steps]
        for prev, cur in zip(seq, seq[1:]):
            assert compare_max_roots(cur, prev) <= 0

    def test_plain_mode(self):
        report = interlacing_descent("nonbipartite", 4, 2)
        assert report.certificate is not None
        assert report.certificate.is_ramanujan

    def test_sampled_strategy_still_certifies_the_endpoint(self):
        report = interlacing_descent("bipartite", 2, 3, strategy="sampled", seed=3)
        assert report.certificate is not None
        assert report.steps is not None

    def test_sampled_conditionals_without_real_roots(self):
        # at this seed a step averages to x^4 - 55/8 x^2 + 99/8 against
        # x^4 - 49/8 x^2 + 153/16, neither with a real root
        report = interlacing_descent(
            "bipartite", 3, 3, strategy="sampled",
            seed=6028146191336245659, samples_per_program=4,
        )
        assert len(report.steps) == 3 * len(bipartite_uniform_program(3).swaps)
        assert report.certificate == certify(report.graph)

    def test_a_conditional_without_real_roots_loses(self):
        no_real, small, large = poly(1, 0, 1), poly(1, 0, -1), poly(1, 0, -4)
        assert _fired_wins(small, large)
        assert not _fired_wins(large, small)
        assert not _fired_wins(large, large)
        assert _fired_wins(large, no_real)
        assert not _fired_wins(no_real, small)
        assert not _fired_wins(no_real, no_real)

    def test_determinant_budget_is_enforced(self):
        with pytest.raises(BudgetError, match="sampled"):
            interlacing_descent("bipartite", 3, 3, budgets=Budgets(max_det_evals=10, max_swaps=22))

    def test_unknown_strategy_is_rejected(self):
        from ffc import ParameterError

        with pytest.raises(ParameterError):
            interlacing_descent("bipartite", 2, 3, strategy="greedy")
