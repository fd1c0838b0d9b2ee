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
    uniform_permutation,
    uniform_program,
)
from ffc.perms import _sample_image
from ffc.search import _compose_images, _union_image
from support import bernoulli_oracle, grid_matrix, sample_oracle, swap_program_st


def permutations_st(d: int):
    return st.permutations(range(d)).map(lambda im: Permutation(tuple(im)))


class TestPermutation:
    def test_non_bijective_image_is_rejected(self):
        with pytest.raises(ParameterError):
            Permutation((0, 0))

    @given(permutations_st(4))
    def test_inverse(self, p):
        # a bipartite image with the identity on the left places right**-1
        inverse = _union_image("bipartite", 4, tuple(range(4)) + tuple(4 + v for v in p.image))
        ident = tuple(range(4))
        assert _compose_images(p.image, inverse) == ident
        assert _compose_images(inverse, p.image) == ident

    @given(permutations_st(3), permutations_st(3))
    def test_compose_acts_left_to_right_on_points(self, p, q):
        composed = _compose_images(p.image, q.image)
        for i in range(3):
            assert composed[i] == p.image[q.image[i]]

    @given(permutations_st(4))
    def test_matrix_rows_form_a_permutation_matrix(self, p):
        # relabel_grid conjugates by P, the matrix sending e_i to e_image[i]
        rows = [[int(p.image[j] == i) for j in range(4)] for i in range(4)]
        for row in rows:
            assert sum(row) == 1
        for j in range(4):
            assert sum(rows[i][j] for i in range(4)) == 1
        grid = [[4 * i + j for j in range(4)] for i in range(4)]
        conj = grid_matrix(rows) @ grid_matrix(grid) @ grid_matrix(rows).transpose()
        assert grid_matrix(relabel_grid(grid, p.image)) == conj

    @given(permutations_st(3))
    def test_relabelling_preserves_the_spectrum(self, p):
        grid = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        conj = relabel_grid(grid, p.image)
        assert char_poly(grid_matrix(conj)) == char_poly(grid_matrix(grid))

    def test_direct_sum_blocks(self):
        # the bipartite program is the uniform program on each side in turn
        left = uniform_program(3).swaps
        right = tuple(RandomSwap(sw.s + 3, sw.t + 3, sw.prob) for sw in left)
        assert bipartite_uniform_program(3).swaps == left + right


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
        assert _sample_image(prog, SplitMix64(5), 0) == (0, 1, 2)

    def test_always_firing_program_is_deterministic(self):
        prog = SwapProgram(3, (RandomSwap(0, 1, Fraction(1)), RandomSwap(0, 2, Fraction(1))))
        expect = Permutation.identity(3).swap_values(0, 1).swap_values(0, 2)
        for seed in range(4):
            assert _sample_image(prog, SplitMix64(seed), 0) == expect.image

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
        first = [_sample_image(prog, SplitMix64(99), 0) for _ in range(5)]
        second = [_sample_image(prog, SplitMix64(99), 0) for _ in range(5)]
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
        counts: dict[tuple[int, ...], int] = {}
        n = 1200
        for _ in range(n):
            p = _sample_image(prog, rng, 0)
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 6
        assert all(abs(c - n / 6) < n / 6 for c in counts.values())

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda d: swap_program_st(d, max_swaps=12)
        ),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_the_rebuilding_sampler(self, program, seed, draws):
        """Same images, and the generator left in the same state."""
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        for _ in range(draws):
            assert _sample_image(program, rng, 0) == sample_oracle(program, oracle).image
        assert rng.next_u64() == oracle.next_u64()

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda d: swap_program_st(d, max_swaps=12)
        ),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.data(),
    )
    def test_a_start_index_samples_the_program_tail(self, program, seed, data):
        """_sample_image(program, rng, start) draws what the rebuilding
        sampler draws from the program of the swaps from ``start`` on, and
        leaves the generator in the same state."""
        start = data.draw(st.integers(min_value=0, max_value=len(program)))
        tail = SwapProgram(program.dimension, program.swaps[start:])
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            assert _sample_image(program, rng, start) == sample_oracle(tail, oracle).image
        assert rng._state == oracle._state

    @pytest.mark.parametrize("start", [-1, 8])
    def test_a_start_outside_the_program_is_refused(self, start):
        with pytest.raises(ParameterError, match="start"):
            _sample_image(uniform_program(4), SplitMix64(0), start)


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

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(UNIT_PROBABILITIES, max_size=30),
    )
    def test_hits_in_one_loop_match_the_single_draws(self, seed, ps):
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        pairs = [(Fraction(p).numerator, Fraction(p).denominator) for p in ps]
        assert rng.bernoulli_hits(pairs) == [
            k for k, p in enumerate(ps) if bernoulli_oracle(oracle, p)
        ]
        assert rng._state == oracle._state

    @pytest.mark.parametrize("bad", [(-1, 2), (3, 2), (0, 0), (1, -2)])
    def test_hits_refuse_a_pair_outside_the_unit_interval(self, bad):
        # the draws before the bad pair are made, as one bernoulli call each
        rng, oracle = SplitMix64(7), SplitMix64(7)
        with pytest.raises(ValueError):
            rng.bernoulli_hits([(1, 3), (2, 5), bad])
        oracle.bernoulli(Fraction(1, 3))
        oracle.bernoulli(Fraction(2, 5))
        assert rng._state == oracle._state

    @given(st.fractions().filter(lambda p: p < 0 or p > 1))
    def test_probabilities_outside_the_unit_interval_raise(self, p):
        rng, oracle = SplitMix64(0), SplitMix64(0)
        with pytest.raises(ValueError):
            rng.bernoulli(p)
        with pytest.raises(ValueError):
            bernoulli_oracle(oracle, p)
        assert rng._state == oracle._state == 0
