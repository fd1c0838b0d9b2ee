"""The two enumeration budgets are constants of ``ffc.config`` that every
check reads when it runs."""
from __future__ import annotations

import pytest

from ffc import (
    BudgetError,
    SplitMix64,
    config,
    expected_charpoly_perm,
    expected_charpoly_swaps,
    interlacing_descent,
    leaf_distribution,
    perms,
    quadrature,
    random_doubly_regular,
    random_regular_symmetric,
    search,
    uniform_program,
    verify_bip_quadrature,
    verify_sym_quadrature,
)
from ffc.quadrature import check_quadrature_budget

RNG = SplitMix64(19)
SYM = [random_regular_symmetric(3, RNG) for _ in range(2)]
BIP = [random_doubly_regular(3, RNG) for _ in range(2)]
# uniform_program(3) has 3 swaps and 6 leaves; each call below fits the
# default budgets and needs more than one swap and one determinant
CALLS = {
    "leaf_distribution": lambda: leaf_distribution(uniform_program(3)),
    "expected_charpoly_swaps": lambda: expected_charpoly_swaps(SYM, [uniform_program(3)] * 2),
    "expected_charpoly_perm": lambda: expected_charpoly_perm(SYM),
    "verify_sym_quadrature": lambda: verify_sym_quadrature(*SYM),
    "verify_bip_quadrature": lambda: verify_bip_quadrature(*BIP),
    "check_quadrature_budget": lambda: check_quadrature_budget(3, False),
    "interlacing_descent": lambda: interlacing_descent("nonbipartite", 4, 2),
    "interlacing_descent_sampled": lambda: interlacing_descent(
        "nonbipartite", 4, 2, strategy="sampled"
    ),
}


@pytest.mark.parametrize(
    "budget, call",
    [
        ("MAX_SWAPS", "leaf_distribution"),
        ("MAX_SWAPS", "expected_charpoly_swaps"),
        ("MAX_SWAPS", "interlacing_descent"),
        ("MAX_DET_EVALS", "expected_charpoly_swaps"),
        ("MAX_DET_EVALS", "expected_charpoly_perm"),
        ("MAX_DET_EVALS", "verify_sym_quadrature"),
        ("MAX_DET_EVALS", "verify_bip_quadrature"),
        ("MAX_DET_EVALS", "check_quadrature_budget"),
        ("MAX_DET_EVALS", "interlacing_descent"),
        ("MAX_DET_EVALS", "interlacing_descent_sampled"),
    ],
)
def test_a_patched_budget_refuses_before_any_work(monkeypatch, budget, call):
    CALLS[call]()  # fits the default budgets

    def no_work(*args):
        raise AssertionError("work ran past a refused budget")

    monkeypatch.setattr(config, budget, 1)
    # no determinant, and under the swap budget no step of a leaf expansion
    if budget == "MAX_SWAPS":
        monkeypatch.setattr(perms, "_swap_image", no_work)
    monkeypatch.setattr(quadrature, "charpoly_int_coeffs", no_work)
    monkeypatch.setattr(search, "charpoly_int_coeffs", no_work)
    with pytest.raises(BudgetError, match=r"budget allows 1\b"):
        CALLS[call]()


def test_the_budgets_are_not_copied_into_the_package():
    import ffc

    assert not hasattr(ffc, "MAX_SWAPS") and not hasattr(ffc, "MAX_DET_EVALS")
    assert (config.MAX_DET_EVALS, config.MAX_SWAPS) == (10_000_000, 22)
