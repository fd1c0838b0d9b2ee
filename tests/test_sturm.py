"""Exact root counting, bracketing, and interlacing."""
from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import ffc.sturm
from ffc import (
    ParameterError,
    QuadScalar,
    RatPoly,
    as_quad,
    cauchy_root_bound,
    compare_max_roots,
    count_roots_in,
    count_roots_in_mult,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    max_root_bracket,
    root_multiplicity_at,
    squarefree_decomposition,
    sturm_chain,
)
from ffc.graphs import _split_at
from ffc.poly import to_primitive_int
from ffc.search import _fired_wins
from ffc.sturm import (
    NEG_INF,
    POS_INF,
    _bisect_max_root,
    _holds_top_root,
    _homogenised,
    _no_root_above,
    _one_sided,
    _Point,
    _positive_int,
    _proved_top_cell,
    _taylor_shift,
    _top_root_guess,
)
from ffc.transforms import matching_fold
from support import (
    bisect_max_root_oracle,
    compare_max_roots_oracle,
    count_roots_in_mult_oracle,
    count_roots_in_oracle,
    fired_wins_oracle,
    fractions_st,
    holds_top_root_oracle,
    interlaces_oracle,
    is_real_rooted_oracle,
    max_root_bracket_oracle,
    real_rooted_st,
    root_multiplicity_at_oracle,
    split_at_oracle,
    squarefree_sturm_chain,
    yun_decomposition,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


class TestCountRoots:
    def test_open_interval_containing_both_roots(self):
        assert count_roots_in(poly(1, 0, -2), Fraction(-2), Fraction(2), open_interval=True) == 2

    def test_open_interval_with_roots_at_endpoints(self):
        root2 = QuadScalar(0, 1, 2)
        assert count_roots_in(poly(1, 0, -2), -root2, root2, open_interval=True) == 0

    def test_closed_interval_with_roots_at_endpoints(self):
        root2 = QuadScalar(0, 1, 2)
        assert count_roots_in(poly(1, 0, -2), -root2, root2) == 2

    def test_multiplicity_weighted_count(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        assert count_roots_in_mult(p, Fraction(-2), Fraction(2)) == 5
        assert count_roots_in_mult(p, Fraction(-1), Fraction(2), open_interval=True) == 2
        assert count_roots_in(p, Fraction(-2), Fraction(2)) == 2

    @given(st.lists(fractions_st(), min_size=1, max_size=5))
    def test_every_root_is_counted(self, roots):
        p = RatPoly.from_roots(roots)
        lo = min(roots) - 1
        hi = max(roots) + 1
        assert count_roots_in_mult(p, lo, hi) == p.degree
        assert count_roots_in(p, lo, hi) == len(set(roots))


class TestMultiplicity:
    def test_known_multiplicities(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        assert root_multiplicity_at(p, Fraction(1)) == 2
        assert root_multiplicity_at(p, Fraction(-1)) == 3
        assert root_multiplicity_at(p, Fraction(0)) == 0


class TestMaxRootBracket:
    def test_simple_quadratic(self):
        lo, hi = max_root_bracket(poly(1, 0, -1), Fraction(1, 100))
        assert lo < 1 <= hi
        assert hi - lo <= Fraction(1, 100)

    def test_shifted_roots(self):
        lo, hi = max_root_bracket(RatPoly.from_roots([3, -5]), Fraction(1, 100))
        assert lo < 3 <= hi

    def test_repeated_roots(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        lo, hi = max_root_bracket(p, Fraction(1, 1024))
        assert lo < 1 <= hi

    @given(st.lists(fractions_st(), min_size=1, max_size=5))
    def test_bracket_contains_exactly_the_top_root(self, roots):
        p = RatPoly.from_roots(roots)
        lo, hi = max_root_bracket(p)
        assert count_roots_in(p, lo, hi) >= 1
        beyond = hi + cauchy_root_bound(p) + 1
        assert count_roots_in(p, hi, beyond, open_interval=True) == 0
        assert lo < max(roots) <= hi


WIDTHS = st.sampled_from(
    [
        Fraction(1, 1024),
        Fraction(1, 3),
        Fraction(2),
        Fraction(1, 10**9),
        Fraction(1e-12),
    ]
)


def positive_st():
    return fractions_st().map(lambda c: c * c + Fraction(1, 8))


def quadratic(centre, c):
    """x**2 - 2 centre x + centre**2 + c: roots centre +- i sqrt(c)."""
    return RatPoly.from_coeffs([centre * centre + c, -2 * centre, 1])


class TestBracketAgainstBisection:
    """The certified cell equals the Sturm bisection's bracket bit for bit."""

    @given(
        st.lists(
            st.sampled_from([-2, -1, 0, Fraction(1, 3), 1, 3]), min_size=1, max_size=7
        ),
        WIDTHS,
    )
    def test_repeated_roots(self, roots, width):
        p = RatPoly.from_roots(roots)
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @given(real_rooted_st(max_degree=4), st.integers(min_value=1, max_value=2), WIDTHS)
    def test_top_root_of_even_multiplicity_takes_the_fallback(self, p, half, width):
        # p keeps its sign across the top root, which lies more than a cell
        # width above the other roots, so no cell passes the sign check
        top = max_root_bracket_oracle(p, Fraction(1, 2**40))[1] + 3
        p = p * RatPoly.from_roots([top] * (2 * half))
        with mock.patch.object(
            ffc.sturm, "_bisect_max_root", wraps=ffc.sturm._bisect_max_root
        ) as bisect:
            assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)
        assert bisect.called

    @given(
        real_rooted_st(max_degree=4),
        st.lists(positive_st(), min_size=1, max_size=2),
        fractions_st(),
        WIDTHS,
    )
    def test_complex_roots(self, p, offsets, centre, width):
        for c in offsets:
            p = p * quadratic(centre, c)
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @pytest.mark.parametrize(
        "roots, centre, c", [([2, 5, 6], 0, 33), ([-5, -1, 4, 6], 1, 43)]
    )
    def test_guess_at_a_lower_root_is_rejected(self, roots, centre, c):
        # the guess converges to the lowest root, where p changes sign too;
        # only the Descartes count at the cell's right end rules it out
        p = RatPoly.from_roots(roots) * quadratic(centre, c)
        assert max_root_bracket(p) == max_root_bracket_oracle(p)

    @given(
        st.lists(fractions_st(), min_size=1, max_size=3),
        st.integers(min_value=2, max_value=30).filter(lambda c: math.isqrt(c) ** 2 < c),
        st.sampled_from([Fraction(1, 2**80), Fraction(1, 2**100)]),
    )
    def test_widths_below_the_guess_grid(self, roots, c, width):
        # sqrt(c) is irrational, so it is never a cell end; the last exact
        # Newton step refines the guess past its 2**-64 grid
        p = RatPoly.from_roots([-abs(r) for r in roots])
        p = p * RatPoly.from_coeffs([-c, 0, 1])
        with mock.patch.object(
            ffc.sturm, "_bisect_max_root", wraps=ffc.sturm._bisect_max_root
        ) as bisect:
            assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)
        assert not bisect.called

    @given(
        st.lists(fractions_st(), min_size=1, max_size=5),
        st.sampled_from([10**6, 10**12, Fraction(1, 10**6)]),
        WIDTHS,
    )
    def test_large_cauchy_bounds(self, roots, factor, width):
        p = RatPoly.from_roots([r * factor for r in roots])
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @given(st.lists(fractions_st(), min_size=1, max_size=6, unique=True), WIDTHS)
    def test_negative_lead(self, roots, width):
        p = RatPoly.from_roots(roots).scale(Fraction(-5, 3))
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @given(st.lists(positive_st(), min_size=1, max_size=3), fractions_st(), WIDTHS)
    def test_no_real_root_raises_on_both_paths(self, offsets, centre, width):
        p = RatPoly.one()
        for c in offsets:
            p = p * quadratic(centre, c)
        with pytest.raises(ParameterError):
            max_root_bracket_oracle(p, width)
        with pytest.raises(ParameterError):
            max_root_bracket(p, width)


class TestRealRootedness:
    def test_examples(self):
        assert is_real_rooted(poly(1, 0, -1))
        assert not is_real_rooted(poly(1, 0, 1))
        assert is_real_rooted(RatPoly.from_roots([1, 1, 1]))

    @given(real_rooted_st())
    def test_products_of_linear_factors(self, p):
        assert is_real_rooted(p)


class TestInterlacing:
    def test_examples(self):
        assert interlaces(poly(1, 0), poly(1, 0, -1))
        assert not interlaces(poly(1, -5), poly(1, 0, -1))

    @given(real_rooted_st(min_degree=2))
    def test_derivative_interlaces(self, p):
        assert interlaces(p.derivative(), p)


class TestCompareMaxRoots:
    def test_orders_by_largest_root(self):
        assert compare_max_roots(poly(1, 0, -2), poly(1, 0, -3)) == -1
        assert compare_max_roots(poly(1, 0, -3), poly(1, 0, -2)) == 1

    def test_multiplicity_does_not_matter(self):
        assert compare_max_roots(RatPoly.from_roots([1, 1, 1]), poly(1, -1)) == 0

    @given(real_rooted_st(), real_rooted_st())
    def test_antisymmetry(self, p, q):
        assert compare_max_roots(p, q) == -compare_max_roots(q, p)


def proved_cell(p: RatPoly):
    return _proved_top_cell(_positive_int(p))


class TestComparisonRoutes:
    """Which route ``compare_max_roots`` takes, seen through the number of
    chain bisections (``_top_cell`` calls) it runs; each answer is also
    checked against the square-free chain oracle."""

    @pytest.fixture
    def bisections(self, monkeypatch):
        calls = []
        top_cell = ffc.sturm._top_cell

        def counted(*args):
            calls.append(args)
            return top_cell(*args)

        monkeypatch.setattr(ffc.sturm, "_top_cell", counted)
        return calls

    def test_disjoint_proved_cells_decide(self, bisections):
        p, q = RatPoly.from_roots([-1, -1, 1]), RatPoly.from_roots([0, Fraction(3, 2)])
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == -1
        assert compare_max_roots(q, p) == 1
        assert bisections == []

    def test_equal_inputs_tie_without_a_chain(self, bisections):
        p = RatPoly.from_roots([-1, 1, Fraction(7, 3)])
        assert compare_max_roots(p, p) == compare_max_roots_oracle(p, p) == 0
        assert compare_max_roots(p, p.scale(Fraction(-2, 5))) == 0
        assert bisections == []

    def test_equal_inputs_without_real_roots_still_raise(self, bisections):
        p = poly(1, 0, 1) * poly(1, -2, 5)
        with pytest.raises(ParameterError, match="needs real roots"):
            compare_max_roots(p, p)
        assert len(bisections) == 1

    def test_shared_top_root_overlaps(self, bisections):
        p, q = RatPoly.from_roots([-1, 2]), RatPoly.from_roots([0, 1, 2])
        p_cell, q_cell = proved_cell(p), proved_cell(q)
        assert p_cell is not None and q_cell is not None
        assert p_cell[0] < q_cell[1] and q_cell[0] < p_cell[1]
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == 0
        assert len(bisections) == 1

    def test_top_root_of_even_multiplicity_is_not_proved(self, bisections):
        # q's cell is proved, and p's chain has a root above it
        p, q = RatPoly.from_roots([-1, 2, 2]), RatPoly.from_roots([0, 1])
        assert proved_cell(p) is None
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == 1
        assert compare_max_roots(q, p) == -1
        assert bisections == []

    def test_input_without_real_roots_is_not_proved(self, bisections):
        # q's cell is proved, and p's chain has no root above its left end
        p, q = poly(1, 0, 1), RatPoly.from_roots([0, 1])
        assert proved_cell(p) is None
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == -1
        assert compare_max_roots(q, p) == 1
        assert bisections == []

    def test_unproved_top_root_below_the_proved_cell(self, bisections):
        p, q = RatPoly.from_roots([-1, 2]), RatPoly.from_roots([1, 1, -3])
        assert proved_cell(q) is None
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == 1
        assert compare_max_roots(q, p) == -1
        assert bisections == []

    @pytest.mark.parametrize("offset, sign", [(0, 0), (Fraction(1, 2**70), -1)])
    def test_unproved_top_root_inside_the_proved_cell(self, bisections, offset, sign):
        # a double root within 2**-63 of p's simple top root: the one chain
        # cannot tell, so the chain of p*q decides
        p = RatPoly.from_roots([-1, 2])
        q = RatPoly.from_roots([-3, 2 + offset, 2 + offset])
        assert proved_cell(q) is None
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == sign
        assert compare_max_roots(q, p) == -sign
        assert len(bisections) == 2

    def test_top_roots_closer_than_the_cells(self, bisections):
        p = RatPoly.from_roots([-3, 1])
        q = RatPoly.from_roots([-3, 1 + Fraction(1, 2**70)])
        p_cell, q_cell = proved_cell(p), proved_cell(q)
        assert p_cell is not None and q_cell is not None
        assert p_cell[0] < q_cell[1] and q_cell[0] < p_cell[1]
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == -1
        assert compare_max_roots(q, p) == 1
        assert len(bisections) == 2


class TestIsolation:
    def test_brackets_separate_distinct_roots(self):
        p = RatPoly.from_roots([0, 1, 1, Fraction(5, 2)])
        brackets = isolate_real_roots(p)
        assert len(brackets) == 3
        for lo, hi in brackets:
            assert count_roots_in(p, lo, hi) == 1


ROOTS = st.sampled_from([-2, -1, 0, Fraction(1, 3), 1, 3])


@st.composite
def mixed_poly_st(draw, radicand: int):
    """Repeated rational roots, roots +-sqrt(radicand) of any multiplicity,
    complex pairs and a leading coefficient of either sign."""
    p = RatPoly.from_roots(draw(st.lists(ROOTS, max_size=5)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        p = p * RatPoly.from_coeffs([-radicand, 0, 1])
    centre = draw(fractions_st())
    for c in draw(st.lists(positive_st(), max_size=2)):
        p = p * quadratic(centre, c)
    if p.degree < 1:
        p = p * RatPoly.from_roots([draw(ROOTS)])
    return p.scale(draw(st.sampled_from([1, -2, Fraction(3, 5)])))


@st.composite
def chain_case_st(draw):
    """A polynomial and endpoints lo < hi: rationals, roots, elements of
    Q(sqrt(r)) (the roots +-sqrt(r) among them) and the infinities."""
    r = draw(st.sampled_from([2, 3, 5]))
    p = draw(mixed_poly_st(r))
    finite = st.one_of(
        fractions_st(),
        ROOTS,
        st.sampled_from([QuadScalar(0, 1, r), QuadScalar(0, -1, r)]),
        st.builds(QuadScalar, fractions_st(), fractions_st(), st.just(r)),
    )
    lo, hi = sorted((draw(finite), draw(finite)), key=as_quad)
    if as_quad(lo) == as_quad(hi):
        hi = as_quad(hi) + 1
    lo = NEG_INF if draw(st.booleans()) else lo
    hi = POS_INF if draw(st.booleans()) else hi
    return p, lo, hi


@st.composite
def max_root_pair_st(draw):
    """Two polynomials, often sharing roots (the top one too) or equal."""
    common = RatPoly.from_roots(draw(st.lists(ROOTS, max_size=3)))
    p = common * draw(mixed_poly_st(2))
    q = p if draw(st.booleans()) else common * draw(mixed_poly_st(2))
    return p, q.scale(draw(st.sampled_from([1, -1])))


@st.composite
def one_proved_pair_st(draw):
    """p real-rooted, usually with a proved top cell; q with a top root of
    even multiplicity, complex roots, or no real root at all, each often
    at or near p's top root, and either input times a constant of either
    sign."""
    p = RatPoly.from_roots(draw(st.lists(ROOTS, min_size=1, max_size=4)))
    kind = draw(st.sampled_from(["even", "complex", "none"]))
    q = RatPoly.one()
    if kind == "even":
        top = draw(ROOTS)
        q = RatPoly.from_roots([top] * draw(st.sampled_from([2, 4])))
        q = q * RatPoly.from_roots(draw(st.lists(ROOTS.filter(lambda r: r < top), max_size=2)))
    elif kind == "complex":
        q = RatPoly.from_roots(draw(st.lists(ROOTS, min_size=1, max_size=3)))
    for _ in range(draw(st.integers(min_value=1 if kind != "even" else 0, max_value=2))):
        q = q * quadratic(draw(st.one_of(ROOTS, fractions_st())), draw(positive_st()))
    scale = st.sampled_from([1, -3, Fraction(2, 7)])
    return p.scale(draw(scale)), q.scale(draw(scale))


class TestChainOnPItself:
    """The chain of p and p' agrees with the retired square-free chain."""

    @given(chain_case_st(), st.booleans())
    def test_count_roots_in(self, case, open_interval):
        p, lo, hi = case
        assert count_roots_in(p, lo, hi, open_interval) == count_roots_in_oracle(
            p, lo, hi, open_interval
        )

    @given(st.integers(min_value=2, max_value=5).flatmap(mixed_poly_st))
    def test_real_rootedness_and_distinct_roots(self, p):
        assert is_real_rooted(p) == is_real_rooted_oracle(p)
        assert sturm_chain(p).count_all() == squarefree_sturm_chain(p).count_all()

    @given(max_root_pair_st())
    def test_compare_max_roots(self, pair):
        p, q = pair
        try:
            expected = compare_max_roots_oracle(p, q)
        except ParameterError:
            with pytest.raises(ParameterError):
                compare_max_roots(p, q)
        else:
            assert compare_max_roots(p, q) == expected

    @given(max_root_pair_st())
    def test_fired_wins(self, pair):
        p, q = pair
        p_int, q_int = _positive_int(p), _positive_int(q)
        assert _fired_wins(p_int, q_int) == fired_wins_oracle(p, q)
        assert _fired_wins(q_int, p_int) == fired_wins_oracle(q, p)

    @given(one_proved_pair_st())
    def test_one_sided_comparison(self, pair):
        """One proved cell and one chain of the other input: every decision
        the chain makes agrees with the square-free chain oracle."""
        p, q = pair
        p_cell = proved_cell(p)
        assume(p_cell is not None)
        expected = compare_max_roots_oracle(p, q)
        assert compare_max_roots(p, q) == expected
        assert compare_max_roots(q, p) == -expected
        assert _one_sided(p_cell, _positive_int(q)) in (0, expected)

    def test_shared_top_root_of_higher_multiplicity_ties(self):
        p = RatPoly.from_roots([3, 3, -1])
        q = RatPoly.from_roots([3, 1, 1]) * quadratic(Fraction(5), Fraction(1))
        assert compare_max_roots(p, q) == compare_max_roots_oracle(p, q) == 0

    def test_last_element_is_the_gcd_with_the_derivative(self):
        p = RatPoly.from_roots([1, 1, 1, -2, -2, 5])
        assert sturm_chain(p).elements[-1] == to_primitive_int(
            RatPoly.from_roots([1, 1, -2])
        )
        assert is_real_rooted(p)
        assert not is_real_rooted(p * quadratic(Fraction(1), Fraction(1)))


@st.composite
def interlacing_pair_st(draw):
    """Real-rooted g and f with deg g = deg f - 1, their roots drawn from a
    small pool with +-sqrt(2) as a pair, so shared roots are common and
    both outcomes occur."""
    pair = RatPoly.from_coeffs([-2, 0, 1])
    f_pair = draw(st.booleans())
    f_roots = draw(st.lists(ROOTS, min_size=0 if f_pair else 1, max_size=4))
    g_size = len(f_roots) + 2 * f_pair - 1
    g_pair = g_size >= 2 and draw(st.booleans())
    g_size -= 2 * g_pair
    f = RatPoly.from_roots(f_roots) * (pair if f_pair else RatPoly.one())
    g = RatPoly.from_roots(draw(st.lists(ROOTS, min_size=g_size, max_size=g_size)))
    g = g * (pair if g_pair else RatPoly.one())
    return g.scale(draw(st.sampled_from([1, -3]))), f.scale(
        draw(st.sampled_from([1, Fraction(-1, 2)]))
    )


def no_real_root_st():
    return st.lists(st.tuples(fractions_st(), positive_st()), min_size=1, max_size=3).map(
        lambda pairs: math.prod((quadratic(c, o) for c, o in pairs), start=RatPoly.one())
    )


class TestGcdTower:
    """Multiplicities read off the gcd tower of the integer chains agree with
    the retired Fraction Yun decomposition."""

    @given(chain_case_st(), st.booleans())
    def test_count_roots_in_mult(self, case, open_interval):
        p, lo, hi = case
        assert count_roots_in_mult(p, lo, hi, open_interval) == count_roots_in_mult_oracle(
            p, lo, hi, open_interval
        )

    @given(chain_case_st())
    def test_root_multiplicity_at(self, case):
        p, lo, hi = case
        for point in (lo, hi):
            if point is not NEG_INF and point is not POS_INF:
                assert root_multiplicity_at(p, point) == root_multiplicity_at_oracle(p, point)

    @given(st.integers(min_value=2, max_value=5).flatmap(mixed_poly_st))
    def test_multiplicity_at_every_root(self, p):
        # every real root mixed_poly_st can place, each tried as a point
        points = [-2, -1, 0, Fraction(1, 3), 1, 3]
        points += [QuadScalar(0, sign, r) for r in (2, 3, 5) for sign in (1, -1)]
        for point in points:
            assert root_multiplicity_at(p, point) == root_multiplicity_at_oracle(p, point)

    @given(st.integers(min_value=2, max_value=5).flatmap(mixed_poly_st))
    @example(RatPoly.from_coeffs([5]))
    @example(RatPoly.from_roots([1, 1, 1, -2, -2, 5]).scale(-7))
    def test_squarefree_decomposition(self, p):
        parts = squarefree_decomposition(p)
        assert parts == yun_decomposition(p)
        rebuilt = RatPoly.from_coeffs([p.lead])
        for factor, mult in parts:
            for _ in range(mult):
                rebuilt = rebuilt * factor
        assert rebuilt == p

    @given(interlacing_pair_st())
    def test_interlaces(self, pair):
        g, f = pair
        assert interlaces(g, f) == interlaces_oracle(g, f)

    def test_interlacing_examples_with_shared_roots(self):
        assert interlaces(RatPoly.from_roots([1, 1]), RatPoly.from_roots([1, 1, 1]))
        assert interlaces(RatPoly.from_roots([0, 3]), RatPoly.from_roots([0, 1, 3]))
        assert not interlaces(RatPoly.from_roots([1, 3]), RatPoly.from_roots([0, 1, 1]))


class TestTopCell:
    """The shared top-root bisection gives the retired fallback's brackets."""

    @given(
        st.one_of(
            st.integers(min_value=2, max_value=5).flatmap(mixed_poly_st),
            no_real_root_st(),
        ),
        st.sampled_from([Fraction(1, 1024), Fraction(1, 10**9)]),
    )
    def test_bisect_max_root(self, p, width):
        bound = cauchy_root_bound(p)
        try:
            expected = bisect_max_root_oracle(p, bound, width)
        except ParameterError:
            with pytest.raises(ParameterError, match="no real roots"):
                _bisect_max_root(_positive_int(p), bound, width)
        else:
            assert _bisect_max_root(_positive_int(p), bound, width) == expected

    @given(no_real_root_st())
    def test_comparison_without_real_roots_raises(self, p):
        with pytest.raises(ParameterError, match="needs real roots"):
            compare_max_roots(p, p)


def shifted_by_composition(c, t) -> RatPoly:
    """c(x + t) by Horner's rule over RatPoly."""
    x_plus_t = RatPoly.from_coeffs([t, 1])
    out = RatPoly.zero()
    for v in reversed(c):
        out = out * x_plus_t + RatPoly.from_coeffs([v])
    return out


class TestTaylorShift:
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=2),
    )
    @example([3, -1, 2], 0, 0)
    @example([0, 0, 1, -4], -3, 1)
    def test_matches_composition(self, c, t, top_zeros):
        c = c + [0] * top_zeros
        shifted = list(_taylor_shift(c, t))
        assert len(shifted) == len(c)
        assert RatPoly.from_coeffs(shifted) == shifted_by_composition(c, t)

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), max_size=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=0, max_value=3),
    )
    def test_roots_at_the_shift_leave_trailing_zeros(self, roots, t, k):
        roots = roots + [t] * k
        shifted = list(_taylor_shift(to_primitive_int(RatPoly.from_roots(roots)), t))
        mult = roots.count(t)
        assert shifted[:mult] == [0] * mult
        assert shifted[mult] != 0

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=7),
        st.integers(min_value=-8, max_value=40),
    )
    def test_split_at_matches_the_retired_copy(self, roots, t):
        q = to_primitive_int(RatPoly.from_roots(roots))
        assert _split_at(q, t) == split_at_oracle(q, t)

    @given(
        real_rooted_st(max_degree=5),
        st.lists(positive_st(), max_size=1),
        st.sampled_from([1, 3, 1024]),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    def test_holds_top_root_matches_the_retired_copy(self, p, offsets, scale, lo_off, span):
        for c in offsets:
            p = p * quadratic(Fraction(0), c)
        coeffs = to_primitive_int(p)
        top = max_root_bracket_oracle(p, Fraction(1, scale))[0] * scale
        lo = int(top) + lo_off
        expected = holds_top_root_oracle(coeffs, lo, lo + span, scale)
        assert _holds_top_root(coeffs, lo, lo + span, scale) == expected


def proofs_at_x0_and_hi(p: RatPoly, width: Fraction):
    """Verdicts of the Descartes proof at x0 and at hi for the cell (lo, hi]
    that ``max_root_bracket`` checks, whatever the length of its grid's
    denominator; None when no cell is checked or x0 lies outside it.

    Both proofs need p(lo) < 0; the x0 proof then needs no root above x0,
    the hi proof none above hi.
    """
    with mock.patch.object(
        ffc.sturm, "_holds_top_root", wraps=ffc.sturm._holds_top_root
    ) as spy:
        max_root_bracket(p, width)
    if not spy.called:
        return None
    coeffs, lo, hi, scale, _ = spy.call_args.args
    gnum, gden = _top_root_guess(coeffs)
    x0 = Fraction(-((-gnum << 64) // gden) + 1, 1 << 64)
    lo, hi = Fraction(lo, scale), Fraction(hi, scale)
    if not lo < x0 <= hi:
        return None
    below = _Point(lo).sign_of(coeffs) < 0

    def none_above(t: Fraction) -> bool:
        return _no_root_above(_homogenised(coeffs, t.denominator), t.numerator)

    return below and none_above(x0), below and none_above(hi)


def long_root_st():
    """Odd numerators over 2**22 to 2**40, so that a product of three or more
    linear factors has a leading coefficient past 2**64."""
    return st.builds(
        lambda a, k: Fraction(2 * a + 1, 2**k),
        st.integers(min_value=-(2**44), max_value=2**44),
        st.integers(min_value=22, max_value=40),
    )


class TestShortPointProof:
    """On real-rooted inputs, the Descartes proof at
    x0 = ceil(guess * 2**64) / 2**64 + 2**-64 accepts exactly the cells that
    the proof at hi accepts."""

    @given(
        st.lists(long_root_st(), min_size=3, max_size=7),
        st.sampled_from([Fraction(1, 1024), Fraction(1, 10**9), Fraction(1e-12)]),
    )
    def test_random_long_leads(self, roots, width):
        p = RatPoly.from_roots(roots)
        assert _positive_int(p)[-1] > 2**64
        proofs = proofs_at_x0_and_hi(p, width)
        if proofs is not None:
            assert proofs[0] == proofs[1]

    @given(
        st.lists(long_root_st(), min_size=3, max_size=5),
        st.lists(positive_st(), min_size=1, max_size=2),
        fractions_st(),
        st.sampled_from([Fraction(1, 1024), Fraction(1, 10**9)]),
    )
    def test_long_leads_with_complex_roots(self, roots, offsets, centre, width):
        # complex roots near the top root can leave sign variations in the
        # shift at x0 that are gone at hi (the proofs agree only on
        # real-rooted inputs), but by Budan's theorem never the reverse
        p = RatPoly.from_roots(roots)
        for c in offsets:
            p = p * quadratic(centre, c)
        proofs = proofs_at_x0_and_hi(p, width)
        if proofs is not None:
            assert proofs[1] or not proofs[0]

    @pytest.mark.parametrize("mode", ["sym", "asym"])
    def test_readme_grid_cells(self, mode):
        compared = 0
        for m in range(3, 9):
            for d in range(4, 25, 2):
                proofs = proofs_at_x0_and_hi(matching_fold(mode, m, d), Fraction(1, 1024))
                if proofs is not None:
                    assert proofs == (True, True)
                    compared += 1
        assert compared == 66

    @pytest.mark.parametrize("mode", ["sym", "asym"])
    def test_largest_table_cells(self, mode):
        proofs = proofs_at_x0_and_hi(matching_fold(mode, 30, 128), Fraction(1, 1024))
        assert proofs == (True, True)

    def test_largest_asym_cell_needs_no_bisection(self):
        # its grid denominator has 1245 bits, so the shift runs at x0 only
        with mock.patch.object(
            ffc.sturm, "_bisect_max_root", wraps=ffc.sturm._bisect_max_root
        ) as bisect, mock.patch.object(
            ffc.sturm, "_holds_top_root", wraps=ffc.sturm._holds_top_root
        ) as proof, mock.patch.object(
            ffc.sturm, "_no_root_above", wraps=ffc.sturm._no_root_above
        ) as shift:
            lo, hi = max_root_bracket(matching_fold("asym", 30, 128))
        assert not bisect.called
        scale, short = proof.call_args.args[3:]
        assert scale.bit_length() > 1200 and short is not None
        assert shift.call_count == 1
        assert shift.call_args.args[1] == short
        assert hi - lo <= Fraction(1, 1024)

    @pytest.mark.parametrize("offset", [2, 5, 2**30])
    def test_x0_past_the_guessed_cell_is_not_used(self, offset):
        # cells of width 2**-100 are far finer than the 2**-64 grid, so a
        # guess a few cells below the top root has its x0 above that root;
        # the proof at x0 would wrongly accept the guessed cell
        width = Fraction(1, 2**100)
        p = RatPoly.from_roots([Fraction(1, 3), -2])
        guess = Fraction(1, 3) - offset * width
        with mock.patch.object(
            ffc.sturm, "_top_root_guess",
            return_value=(guess.numerator, guess.denominator),
        ):
            assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)
