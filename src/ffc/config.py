"""Resource budgets and the package version.

Budgets bound how much exact enumeration a single call may perform.  They are
deliberately coarse: an operation either fits and runs to completion, or it
raises BudgetError before doing any heavy work.
"""

from __future__ import annotations

from dataclasses import dataclass

PACKAGE_VERSION = "0.1.0"

DEFAULT_DET_BUDGET = 10_000_000
DEFAULT_SWAP_BUDGET = 22


@dataclass(frozen=True)
class Budgets:
    """Caps for exact enumeration work.

    max_det_evals bounds the number of characteristic-polynomial (determinant)
    evaluations a single enumeration may perform.  max_swaps bounds the length
    of a swap program whose leaf distribution is expanded exactly.
    """

    max_det_evals: int = DEFAULT_DET_BUDGET
    max_swaps: int = DEFAULT_SWAP_BUDGET


DEFAULT_BUDGETS = Budgets()
