"""Permutations, random swap programs, and their exact leaf distributions."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffc import (
    ParameterError,
    Permutation,
    RandomSwap,
    SplitMix64,
    SwapProgram,
    bipartite_uniform_program,
    char_poly,
    leaf_distribution,
    relabel_grid,
    sample,
    uniform_permutation,
    uniform_program,
)
from support import bernoulli_oracle, grid_matrix


def permutations_st(d: int):
    return st.permutations(range(d)).map(lambda im: Permutation(tuple(im)))


class TestPermutation:
    def test_non_bijective_image_is_rejected(self):
        with pytest.raises(ParameterError):
            Permutation((0, 0))

    @given(permutations_st(4))
    def test_inverse(self, p):
        ident = Permutation.identity(4)
        assert p.compose(p.inverse()) == ident
        assert p.inverse().compose(p) == ident

    @given(permutations_st(3), permutations_st(3))
    def test_compose_acts_left_to_right_on_points(self, p, q):
        composed = p.compose(q)
        for i in range(3):
            assert composed.image[i] == p.image[q.image[i]]

    @given(permutations_st(4))
    def test_matrix_rows_form_a_permutation_matrix(self, p):
        rows = p.matrix_rows()
        for row in rows:
            assert sum(row) == 1
        for j in range(4):
            assert sum(rows[i][j] for i in range(4)) == 1
        assert rows[p.image[2]][2] == 1

    @given(permutations_st(3))
    def test_relabelling_preserves_the_spectrum(self, p):
        grid = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        conj = relabel_grid(grid, p.image)
        assert char_poly(grid_matrix(conj)) == char_poly(grid_matrix(grid))

    def test_direct_sum_blocks(self):
        left = Permutation((1, 0))
        right = Permutation((0, 1))
        assert left.direct_sum(right).image == (1, 0, 2, 3)


class TestSwapSemantics:
    def test_swap_values_exchanges_two_labels(self):
        p = Permutation((2, 0, 1))
        q = p.swap_values(0, 1)
        assert q.image == (2, 1, 0)

    def test_probability_outside_unit_interval_is_rejected(self):
        with pytest.raises(ParameterError):
            RandomSwap(0, 1, Fraction(3, 2))

    def test_never_firing_program_returns_identity(self):
        prog = SwapProgram(3, (RandomSwap(0, 1, Fraction(0)), RandomSwap(0, 2, Fraction(0))))
        assert sample(prog, SplitMix64(5)) == Permutation.identity(3)

    def test_always_firing_program_is_deterministic(self):
        prog = SwapProgram(3, (RandomSwap(0, 1, Fraction(1)), RandomSwap(0, 2, Fraction(1))))
        expect = Permutation.identity(3).swap_values(0, 1).swap_values(0, 2)
        for seed in range(4):
            assert sample(prog, SplitMix64(seed)) == expect

    def test_single_swap_distribution(self):
        prog = SwapProgram(2, (RandomSwap(0, 1, Fraction(1, 3)),))
        dist = leaf_distribution(prog)
        assert dist == {
            Permutation((0, 1)): Fraction(2, 3),
            Permutation((1, 0)): Fraction(1, 3),
        }

    def test_empty_program_is_a_point_mass(self):
        dist = leaf_distribution(SwapProgram(3, ()))
        assert dist == {Permutation.identity(3): Fraction(1)}


class TestUniformPrograms:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_exact_uniformity(self, d):
        prog = uniform_program(d)
        assert len(prog.swaps) == 2 ** (d - 1) - 1
        dist = leaf_distribution(prog)
        assert len(dist) == math.factorial(d)
        assert set(dist.values()) == {Fraction(1, math.factorial(d))}

    def test_smallest_case_is_a_fair_coin(self):
        prog = uniform_program(2)
        assert prog.swaps == (RandomSwap(0, 1, Fraction(1, 2)),)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bipartite_exact_uniformity(self, d):
        prog = bipartite_uniform_program(d)
        assert len(prog.swaps) == 2 * (2 ** (d - 1) - 1)
        dist = leaf_distribution(prog)
        assert len(dist) == math.factorial(d) ** 2
        assert set(dist.values()) == {Fraction(1, math.factorial(d) ** 2)}

    def test_bipartite_leaves_fix_the_blocks(self):
        for p in leaf_distribution(bipartite_uniform_program(3)):
            assert all(p.image[i] < 3 for i in range(3))
            assert all(p.image[i] >= 3 for i in range(3, 6))


class TestSampling:
    def test_sampling_is_reproducible(self):
        prog = uniform_program(4)
        first = [sample(prog, SplitMix64(99)) for _ in range(5)]
        second = [sample(prog, SplitMix64(99)) for _ in range(5)]
        assert first == second

    def test_uniform_permutation_has_the_right_degree(self):
        rng = SplitMix64(7)
        for d in (1, 3, 6):
            p = uniform_permutation(d, rng)
            assert p.degree == d
            assert sorted(p.image) == list(range(d))

    def test_sampled_frequencies_are_plausible(self):
        # crude sanity bound, not a significance test
        prog = uniform_program(3)
        rng = SplitMix64(123)
        counts: dict[Permutation, int] = {}
        n = 1200
        for _ in range(n):
            p = sample(prog, rng)
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 6
        assert all(abs(c - n / 6) < n / 6 for c in counts.values())


UNIT_PROBABILITIES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.sampled_from([Fraction(0), Fraction(1), 0, 1]),
)


class TestBernoulli:
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(UNIT_PROBABILITIES, max_size=30),
    )
    def test_draws_match_the_fraction_comparisons(self, seed, ps):
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        assert [rng.bernoulli(p) for p in ps] == [bernoulli_oracle(oracle, p) for p in ps]
        assert rng._state == oracle._state

    @given(st.fractions().filter(lambda p: p < 0 or p > 1))
    def test_probabilities_outside_the_unit_interval_raise(self, p):
        rng, oracle = SplitMix64(0), SplitMix64(0)
        with pytest.raises(ValueError):
            rng.bernoulli(p)
        with pytest.raises(ValueError):
            bernoulli_oracle(oracle, p)
        assert rng._state == oracle._state == 0
