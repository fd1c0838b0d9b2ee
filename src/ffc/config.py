"""The package version and the two enumeration budgets.

The budgets bound how much exact enumeration a single call may perform:
``MAX_DET_EVALS`` the characteristic-polynomial (determinant) evaluations of
one enumeration, and ``MAX_SWAPS`` the length of a swap program whose leaf
distribution is expanded exactly.  They are deliberately coarse: an
operation either fits and runs to completion, or it raises BudgetError
before doing any heavy work.  Modules read them as ``config.MAX_*`` when
they check, so a patch of this module reaches every check; they are not
re-exported from ``ffc``, where a copy would not see the patch.  Limits
that guard one module only (``convolution.MAX_LEVEL``, for one) live in
that module.
"""

PACKAGE_VERSION = "0.1.0"

MAX_DET_EVALS = 10_000_000
MAX_SWAPS = 22
