"""Random search and derandomized descent for certified expander unions."""
from __future__ import annotations

import hashlib
import itertools
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffc import (
    BudgetError,
    MatchingUnion,
    Permutation,
    RatMatrix,
    RatPoly,
    SplitMix64,
    SwapProgram,
    certify,
    char_poly,
    bipartite_uniform_program,
    compare_max_roots,
    dilation,
    expected_poly_for_graph_model,
    interlacing_descent,
    leaf_distribution,
    m_fold_asym,
    rejection_search,
    relabel_grid,
    uniform_program,
)
from ffc import config, search
from ffc.matrix import charpoly_int_coeffs
from ffc.perms import _sample_image
from ffc.poly import _int_primitive
from ffc.graphs import MAX_CERTIFY_SIDE, _deflate_int, _gram, deflate_trivial, union_grid
from ffc.quadrature import weighted_charpoly_sum
from ffc.search import (
    _compose_images,
    _conditional_average,
    _conditional_poly,
    _fired_wins,
    _placed_key,
    _sampled_suffixes,
    _union_charpoly,
    _union_image,
)
from ffc.serial import dumps, poly_to_obj, search_report_to_obj
from ffc.sturm import _positive_int, _proved_top_cell
from support import (
    bipartite_program_st,
    conditional_average_oracle,
    dilation_conditional_oracle,
    fired_wins_oracle,
    grid_matrix,
    leaf_support_descent_count,
    sampled_suffixes_oracle,
    subprocess_env,
    swap_average_oracle,
    swap_program_st,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


def perms_of(d):
    return [Permutation(im) for im in itertools.permutations(range(d))]


def keyed_average(mode, d, dists):
    """``search._conditional_average`` of program image distributions, each
    composed onto the identity."""
    identity = tuple(range(d if mode == "nonbipartite" else 2 * d))
    return _conditional_average(
        mode, d, [identity] * len(dists), [dist.items() for dist in dists]
    )


def descent_digest(report, seed):
    """sha256 of a descent's search-report document and its step trace."""
    trace = {
        "report": search_report_to_obj(report, seed),
        "initial": poly_to_obj(report.initial_deflated),
        "steps": [
            [s.program_index, s.swap_index, s.fired, poly_to_obj(s.deflated)]
            for s in report.steps
        ],
    }
    return hashlib.sha256(dumps(trace).encode()).hexdigest()


class TestExpectedPolyModel:
    def test_plain_union_of_two_matchings(self):
        base = union_grid("nonbipartite", 4, [tuple(range(4))])
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
                # the permutation matrix of p o s**-1 has entry (p(i), s(i))
                grid = [[Fraction(ident.rows[i][j]) for j in range(3)] for i in range(3)]
                for i in range(3):
                    grid[p.image[i]][s.image[i]] += 1
                total = total + char_poly(dilation(RatMatrix.from_rows(tuple(map(tuple, grid)))))
                pairs += 1
        avg = total.scale(Fraction(1, pairs))
        assert expected_poly_for_graph_model("bipartite", 3, 2) == avg

    def test_three_bipartite_matchings_on_two_pairs(self):
        assert expected_poly_for_graph_model("bipartite", 2, 3) == poly(1, 0, -12, 0, 27)

    def test_single_matching_is_deterministic(self):
        assert expected_poly_for_graph_model("nonbipartite", 4, 1) == RatPoly.from_roots([1, 1, -1, -1])
        assert expected_poly_for_graph_model("bipartite", 3, 1) == RatPoly.from_roots([1, 1, 1, -1, -1, -1])

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_bipartite_single_pair(self, m):
        # one vertex a side: m parallel edges, eigenvalues +-m and nothing else
        assert expected_poly_for_graph_model("bipartite", 1, m) == RatPoly.from_roots([m, -m])

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

    @pytest.mark.parametrize(
        "mode, d, m",
        [
            ("nonbipartite", MAX_CERTIFY_SIDE + 2, 3),
            ("bipartite", MAX_CERTIFY_SIDE + 1, 3),
            ("bipartite", 4, search.MAX_SEARCH_DEGREE + 1),
        ],
    )
    def test_oversized_trials_are_refused_before_sampling(self, monkeypatch, mode, d, m):
        def unreachable(*args):
            raise AssertionError("sampled past the budget")

        monkeypatch.setattr(search, "sample_bipartite", unreachable)
        monkeypatch.setattr(search, "sample_nonbipartite", unreachable)
        with pytest.raises(BudgetError, match="search trial"):
            rejection_search(mode, d, m, 1, seed=0)

    @pytest.mark.parametrize(
        "mode, d, m",
        [("nonbipartite", MAX_CERTIFY_SIDE, 3), ("bipartite", 6, search.MAX_SEARCH_DEGREE)],
    )
    def test_a_trial_at_the_limits_runs(self, mode, d, m):
        report = rejection_search(mode, d, m, 1, seed=1)
        assert report.trials_run == 1

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
        no_real, small, large = (
            _positive_int(poly(1, 0, c)) for c in (1, -1, -4)
        )
        assert _fired_wins(small, large)
        assert not _fired_wins(large, small)
        assert not _fired_wins(large, large)
        assert _fired_wins(large, no_real)
        assert not _fired_wins(no_real, small)
        assert not _fired_wins(no_real, no_real)

    @staticmethod
    def draw_conditional(data):
        """A mode, sizes, swap programs and their leaf distributions."""
        mode = data.draw(st.sampled_from(["bipartite", "nonbipartite"]))
        m = data.draw(st.integers(min_value=1, max_value=3))
        if mode == "nonbipartite":
            d = data.draw(st.sampled_from([2, 4]))
            base = grid_matrix(union_grid("nonbipartite", d, [tuple(range(d))]))
            programs = swap_program_st(d, max_swaps=3)
        else:
            # the union base is the dilation of the identity matching
            d = data.draw(st.integers(min_value=2, max_value=3))
            base = dilation(RatMatrix.identity(d))
            programs = bipartite_program_st(d, max_swaps=1 if m == 3 else 2)
        progs = [data.draw(programs) for _ in range(m)]
        dists = [
            {p.image: pr for p, pr in leaf_distribution(prog).items()} for prog in progs
        ]
        return mode, d, m, base, progs, dists

    @given(data=st.data())
    def test_conditional_average_matches_the_retired_loop(self, data):
        mode, d, m, base, progs, dists = self.draw_conditional(data)
        expected, _ = swap_average_oracle([base] * m, progs)
        assert _conditional_poly(*keyed_average(mode, d, dists), mode == "bipartite") == expected

    @given(data=st.data())
    def test_integer_deflation_matches_the_fraction_route(self, data):
        """The trivial root divided out of the integer sum, by m or by m**2
        in the Gram variable, equals ``deflate_trivial`` of the RatPoly
        average."""
        mode, d, m, _, _, dists = self.draw_conditional(data)
        bipartite = mode == "bipartite"
        acc, den = keyed_average(mode, d, dists)
        average, _ = conditional_average_oracle(mode, d, dists)
        deflated = _deflate_int(acc, m * m if bipartite else m)
        assert all(type(c) is int for c in deflated)
        assert _conditional_poly(deflated, den, bipartite) == deflate_trivial(
            average, m, bipartite
        )

    @given(data=st.data())
    def test_bipartite_conditionals_match_the_dilation_averager(self, data):
        """Conditionals as the descent forms them: fixed programs pinned to
        their prefix image, the others a suffix distribution composed onto
        it, exact or empirical."""
        exact = data.draw(st.booleans())
        d = data.draw(st.integers(min_value=1, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=3))
        program = bipartite_uniform_program(d)
        side = st.permutations(range(d))
        deciding = data.draw(st.integers(min_value=0, max_value=m - 1))
        dists = []
        for k in range(m):
            left, right = data.draw(side), data.draw(side)
            onto = tuple(left) + tuple(d + v for v in right)
            if k < deciding:
                dists.append({onto: Fraction(1)})
                continue
            # at d = 3 an exact suffix keeps to the right side's swaps
            first = 3 if exact and d == 3 else 0
            start = data.draw(st.integers(min_value=first, max_value=len(program)))
            tail = SwapProgram(2 * d, program.swaps[start:])
            if exact:
                outcomes = [(p.image, pr) for p, pr in leaf_distribution(tail).items()]
            else:
                rng = SplitMix64(data.draw(st.integers(min_value=0, max_value=2**64 - 1)))
                draws = data.draw(st.integers(min_value=1, max_value=4))
                counts = Counter(_sample_image(tail, rng, 0) for _ in range(draws))
                outcomes = [(img, Fraction(c, draws)) for img, c in counts.items()]
            dists.append({_compose_images(img, onto): pr for img, pr in outcomes})
        expected, _ = dilation_conditional_oracle(d, dists)
        assert _conditional_poly(*keyed_average("bipartite", d, dists), True) == expected

    # sha256 of each descent's search-report document and step trace, as the
    # dilation averager produced them
    PINNED_DESCENTS = [
        (("bipartite", 2, 3, "exact", 0),
         "b7d8d19c97034eb8c90bf5050e7f40b4100602ffb607b7d5eb14bb8cc699c56b"),
        (("bipartite", 3, 2, "exact", 0),
         "9c1594b8f6d39ce9cdb98c1acc67232919abe75ad763b8fb0a90c118d4156f44"),
        (("bipartite", 3, 3, "sampled", 7),
         "cd639b8d3d3a11c9877459f7608752b508502320c9af3f2f410da95aa656ac77"),
    ]

    @pytest.mark.parametrize("args, digest", PINNED_DESCENTS)
    def test_descents_match_their_pinned_digests(self, args, digest):
        mode, d, m, strategy, seed = args
        report = interlacing_descent(mode, d, m, strategy=strategy, seed=seed)
        assert descent_digest(report, seed) == digest

    @pytest.mark.parametrize("mode, d", [("nonbipartite", 6), ("bipartite", 3)])
    def test_sampled_descents_match_the_chain_comparison(self, monkeypatch, mode, d):
        """Comparisons decided by proved cells or one chain take the steps
        that counting real roots and bisecting the square-free chain take,
        conditionals without real roots included."""

        def traces():
            reports = [
                interlacing_descent(
                    mode, d, 3, strategy="sampled", seed=seed, samples_per_program=2
                )
                for seed in range(15)
            ]
            return [(r.initial_deflated, r.steps) for r in reports]

        fast = traces()
        monkeypatch.setattr(
            search,
            "_fired_wins",
            lambda f, u: fired_wins_oracle(RatPoly.from_coeffs(f), RatPoly.from_coeffs(u)),
        )
        assert traces() == fast

    @pytest.mark.parametrize("m, i", [(m, i) for m in range(1, 5) for i in range(m)])
    def test_sampled_suffixes_are_the_oracles_from_the_deciding_program_on(self, m, i):
        """The deciding program's suffix and every later one are the draws of
        the step that drew them all, and the generator ends where that step
        left it whenever a later program was drawn."""
        program = uniform_program(6)
        for seed, samples, j in itertools.product(range(4), (1, 2, 3), (0, 9, 30)):
            fast_rng, slow_rng = SplitMix64(seed), SplitMix64(seed)
            fast = _sampled_suffixes(program, m, i, j, fast_rng, samples)
            slow = sampled_suffixes_oracle(program, m, i, j, slow_rng, samples)
            assert fast == [None] * i + slow[i:]
            if i < m - 1:
                assert fast_rng.next_u64() == slow_rng.next_u64()

    @pytest.mark.parametrize("mode, d", [("nonbipartite", 4), ("nonbipartite", 6), ("bipartite", 3)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_sampled_descents_match_drawing_every_suffix(self, monkeypatch, mode, d, m):
        """Skipping the draws of the programs a step pins, or only advancing
        the generator past them, changes no step and no report: descents
        match those of the step that drew every suffix, over many seeds and
        sample counts.  At m = 4 the generator is advanced at i = 1 and 2."""

        def digests():
            return [
                descent_digest(
                    interlacing_descent(
                        mode, d, m, strategy="sampled", seed=seed,
                        samples_per_program=samples,
                    ),
                    seed,
                )
                for seed in range(6)
                for samples in (1, 2, 3)
            ]

        def drawn_in_full(program, m, i, j, rng, samples):
            # the conditionals pin the programs before i
            return [None] * i + sampled_suffixes_oracle(program, m, i, j, rng, samples)[i:]

        fast = digests()
        monkeypatch.setattr(search, "_sampled_suffixes", drawn_in_full)
        assert digests() == fast

    def test_a_descent_past_the_degree_limit_is_refused_up_front(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("built a program past the degree limit")

        monkeypatch.setattr(search, "uniform_program", unreachable)
        monkeypatch.setattr(search, "bipartite_uniform_program", unreachable)
        m = search.MAX_SEARCH_DEGREE + 1
        for mode, strategy in itertools.product(("nonbipartite", "bipartite"), ("exact", "sampled")):
            with pytest.raises(BudgetError, match=rf"^degree {m} exceeds the budget of 32$"):
                interlacing_descent(mode, 2, m, strategy=strategy)

    def test_a_descent_at_the_degree_limit_is_certified(self):
        m = search.MAX_SEARCH_DEGREE
        report = interlacing_descent(
            "bipartite", 2, m, strategy="sampled", seed=1, samples_per_program=1
        )
        assert report.certificate == certify(report.graph)

    def test_swap_budget_is_enforced(self, monkeypatch):
        # uniform_program(4) has 7 swaps
        monkeypatch.setattr(config, "MAX_SWAPS", 2)
        with pytest.raises(BudgetError, match="budget allows 2"):
            interlacing_descent("nonbipartite", 4, 2)

    def test_determinant_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_DET_EVALS", 10)
        with pytest.raises(BudgetError, match="sampled"):
            interlacing_descent("bipartite", 3, 3)

    @pytest.mark.parametrize(
        "mode, d, m, strategy, samples",
        [
            ("nonbipartite", 4, 2, "exact", 8),
            ("nonbipartite", 4, 3, "exact", 8),
            ("bipartite", 2, 3, "exact", 8),
            ("bipartite", 3, 2, "exact", 8),
            ("nonbipartite", 6, 3, "sampled", 2),
            ("bipartite", 3, 3, "sampled", 3),
            # more samples than the 3 matchings of d = 4
            ("nonbipartite", 4, 3, "sampled", 5),
        ],
    )
    def test_the_descent_budget_is_counted_up_front(
        self, monkeypatch, mode, d, m, strategy, samples
    ):
        """The count the refusal names bounds the terms the descent's
        conditionals evaluate: a budget of exactly that admits it, and one
        less refuses it before any draw or conditional."""

        def descend():
            return interlacing_descent(
                mode, d, m, strategy=strategy, seed=3, samples_per_program=samples
            )

        def refusal():
            with pytest.raises(BudgetError) as refused:
                descend()
            return str(refused.value)

        monkeypatch.setattr(config, "MAX_DET_EVALS", 0)
        message = refusal()
        if strategy == "sampled":
            # the draws are refused first; past them, the terms
            draws = re.search(r"draws (\d+) suffixes", message)
            monkeypatch.setattr(config, "MAX_DET_EVALS", int(draws.group(1)))
            message = refusal()
        need = int(re.search(r"needs (\d+) determinant evaluations", message).group(1))
        terms = []

        def counted(dists, charpoly):
            acc, den, count = weighted_charpoly_sum(dists, charpoly)
            terms.append(count)
            return acc, den, count

        monkeypatch.setattr(search, "weighted_charpoly_sum", counted)
        monkeypatch.setattr(config, "MAX_DET_EVALS", need)
        report = descend()
        assert len(terms) == 1 + 2 * len(report.steps)
        assert sum(terms) <= need

        def no_work(*args):
            raise AssertionError("work ran past a refused budget")

        monkeypatch.setattr(search, "weighted_charpoly_sum", no_work)
        monkeypatch.setattr(search, "_sample_image", no_work)
        monkeypatch.setattr(config, "MAX_DET_EVALS", need - 1)
        assert f"needs {need} determinant evaluations" in refusal()

    def test_an_exact_descent_is_counted_by_keys(self):
        """Exact plain d=4, m=5 has 54 353 558 image terms, but a suffix
        places at most 3 matchings, so it is counted at 5 325 terms."""
        report = interlacing_descent("nonbipartite", 4, 5)
        assert report.certificate.is_ramanujan

    def test_exact_admission_matches_the_leaf_support_count(self):
        """Charging every exact suffix K keys admits what counting each
        suffix's leaf support admitted, at every size the swap budget
        admits and every degree up to the limit, but for bipartite d=4,
        m=4, which thrashes the charpoly table."""
        sizes = [
            (mode, d, n_swaps)
            for mode, ds, swaps in (
                ("nonbipartite", range(2, 12, 2), lambda d: (1 << (d - 1)) - 1),
                ("bipartite", range(1, 12), lambda d: (1 << d) - 2),
            )
            for d in ds
            if (n_swaps := swaps(d)) <= config.MAX_SWAPS
        ]
        assert [(mode, d) for mode, d, _ in sizes] == [
            ("nonbipartite", 2), ("nonbipartite", 4),
            ("bipartite", 1), ("bipartite", 2), ("bipartite", 3), ("bipartite", 4),
        ]
        for mode, d, n_swaps in sizes:
            for m in range(1, search.MAX_SEARCH_DEGREE + 1):
                try:
                    search._check_descent_budget(mode, d, m, n_swaps, None)
                    admitted = True
                except BudgetError:
                    admitted = False
                before = leaf_support_descent_count(mode, d, m) <= config.MAX_DET_EVALS
                assert admitted == (before and (mode, d, m) != ("bipartite", 4, 4)), (mode, d, m)
        assert leaf_support_descent_count("bipartite", 4, 4) <= config.MAX_DET_EVALS

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_must_be_positive(self, samples):
        from ffc import ParameterError

        with pytest.raises(ParameterError, match="sample"):
            interlacing_descent(
                "bipartite", 2, 3, strategy="sampled", samples_per_program=samples
            )

    def test_unknown_strategy_is_rejected(self):
        from ffc import ParameterError

        with pytest.raises(ParameterError):
            interlacing_descent("bipartite", 2, 3, strategy="greedy")


def clear_descent_tables():
    search._union_charpoly.cache_clear()
    search._conditional_top_cell.cache_clear()


def normalised(coeffs):
    """Primitive coefficients with a positive leading one: one tuple per
    polynomial up to a nonzero rational factor."""
    primitive = _int_primitive(coeffs)
    return primitive if primitive[-1] > 0 else tuple(-c for c in primitive)


class TestConditionalCache:
    @pytest.fixture(autouse=True)
    def cold_table(self):
        """Each test starts from empty charpoly and cell tables, whatever ran
        before it in the process, and leaves none of their entries behind."""
        clear_descent_tables()
        yield
        clear_descent_tables()

    @pytest.fixture
    def charpolys(self, monkeypatch):
        """The grids ``charpoly_int_coeffs`` is called on, in call order."""
        calls = []

        def counted(rows):
            calls.append(tuple(map(tuple, rows)))
            return charpoly_int_coeffs(rows)

        monkeypatch.setattr(search, "charpoly_int_coeffs", counted)
        return calls

    def test_a_sampled_descent_computes_each_union_once(self, charpolys, monkeypatch):
        """Each multiset of placed keys a conditional reaches misses the cold
        charpoly table once and is computed once."""
        multisets = set()

        def recorded(dists, charpoly):
            multisets.update(
                tuple(sorted(key for key, _ in combo)) for combo in itertools.product(*dists)
            )
            return weighted_charpoly_sum(dists, charpoly)

        monkeypatch.setattr(search, "weighted_charpoly_sum", recorded)
        interlacing_descent(
            "nonbipartite", 6, 3, strategy="sampled", seed=11, samples_per_program=2
        )
        assert search._union_charpoly.cache_info().misses == len(charpolys) == len(multisets)

    def test_each_distinct_conditional_is_proved_once(self, monkeypatch):
        """Over a run of seeded descents the cell table proves the top cell
        of each distinct conditional it is asked for once, however often the
        conditional is compared, and answers every other lookup itself."""
        looked_up, proved = [], []
        table = search._conditional_top_cell

        def lookup(coeffs):
            looked_up.append(coeffs)
            return table(coeffs)

        def prove(coeffs):
            proved.append(coeffs)
            return _proved_top_cell(coeffs)

        monkeypatch.setattr(search, "_conditional_top_cell", lookup)
        monkeypatch.setattr(search, "_proved_top_cell", prove)
        for seed in range(12):
            interlacing_descent(
                "nonbipartite", 6, 3, strategy="sampled", seed=seed, samples_per_program=2
            )
        distinct = {normalised(c) for c in looked_up}
        assert len(proved) == len(distinct)
        assert {normalised(c) for c in proved} == distinct
        assert table.cache_info().misses == len(proved)
        assert table.cache_info().hits == len(looked_up) - len(proved)
        assert table.cache_info().hits > len(proved)

    def test_a_warm_table_changes_no_document(self):
        """One seeded sampled descent gives the same document and step trace
        on cold charpoly and cell tables, on the tables it warmed itself,
        with only the cell table cleared, after a clear of both, and in a
        fresh interpreter."""
        args = ("nonbipartite", 6, 3)
        kwargs = dict(strategy="sampled", seed=5, samples_per_program=2)

        def digest():
            return descent_digest(interlacing_descent(*args, **kwargs), 5)

        cold = digest()
        assert search._union_charpoly.cache_info().currsize > 0
        assert search._conditional_top_cell.cache_info().currsize > 0
        assert digest() == cold
        assert search._conditional_top_cell.cache_info().hits > 0
        search._conditional_top_cell.cache_clear()
        assert digest() == cold
        clear_descent_tables()
        assert digest() == cold
        script = (
            "from ffc import interlacing_descent\n"
            "from test_search import descent_digest\n"
            f"print(descent_digest(interlacing_descent(*{args!r}, **{kwargs!r}), 5))\n"
        )
        env = subprocess_env()
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        assert child.stdout.strip() == cold


def placed_images(draw, mode, d, count):
    """``count`` program images of a union, drawn for ``mode``: permutations
    of d in plain mode, a left and a right side in bipartite mode."""
    side = st.permutations(range(d))
    images = []
    for _ in range(count):
        image = tuple(draw(side))
        if mode == "bipartite":
            image += tuple(d + v for v in draw(side))
        images.append(image)
    return images


def placed_grid(mode, d, images):
    return union_grid(mode, d, [_union_image(mode, d, img) for img in images])


class TestCharpolyTable:
    """The table's key against the grid it stands for."""

    @given(data=st.data())
    def test_the_table_matches_the_grid_charpoly(self, data):
        mode = data.draw(st.sampled_from(["bipartite", "nonbipartite"]))
        if mode == "bipartite":
            d = data.draw(st.integers(min_value=1, max_value=8))
        else:
            d = 2 * data.draw(st.integers(min_value=1, max_value=4))
        m = data.draw(st.integers(min_value=1, max_value=4))
        images = placed_images(data.draw, mode, d, m)
        key = tuple(sorted(_placed_key(mode, d, img) for img in images))
        grid = placed_grid(mode, d, images)
        assert _union_charpoly(mode, d, key) == charpoly_int_coeffs(
            grid if mode == "nonbipartite" else _gram(grid)
        )

    @pytest.mark.parametrize(
        "mode, d",
        [("nonbipartite", d) for d in (2, 4, 6)] + [("bipartite", d) for d in (1, 2, 3, 4)],
    )
    def test_one_key_per_single_grid_over_all_images(self, mode, d):
        """Every image of the size: images share a key exactly when they
        place one grid, so keys and grids partition the images alike."""
        side = list(itertools.permutations(range(d)))
        if mode == "nonbipartite":
            images = side
        else:
            images = [a + tuple(d + v for v in b) for a in side for b in side]
        pairs = {
            (_placed_key(mode, d, img), tuple(map(tuple, placed_grid(mode, d, [img]))))
            for img in images
        }
        assert len(pairs) == len({k for k, _ in pairs}) == len({g for _, g in pairs})

    @given(data=st.data())
    def test_one_key_per_single_grid_at_d_8(self, data):
        """Two images, the second often a relabelling that places the same
        matching: the pairs reordered and flipped (plain), or both sides
        permuted alike (bipartite)."""
        mode = data.draw(st.sampled_from(["bipartite", "nonbipartite"]))
        d = 8
        (first,) = placed_images(data.draw, mode, d, 1)
        if data.draw(st.booleans()):
            (second,) = placed_images(data.draw, mode, d, 1)
        elif mode == "nonbipartite":
            order = data.draw(st.permutations(range(d // 2)))
            flips = data.draw(st.lists(st.booleans(), min_size=d // 2, max_size=d // 2))
            second = tuple(
                v
                for k, flip in zip(order, flips)
                for v in (first[2 * k + flip], first[2 * k + 1 - flip])
            )
        else:
            sigma = data.draw(st.permutations(range(d)))
            second = tuple(first[i] for i in sigma) + tuple(first[d + i] for i in sigma)
        same_key = _placed_key(mode, d, first) == _placed_key(mode, d, second)
        same_grid = placed_grid(mode, d, [first]) == placed_grid(mode, d, [second])
        assert same_key == same_grid
