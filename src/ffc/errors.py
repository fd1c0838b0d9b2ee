"""Exception taxonomy shared across the library.

Three failure classes matter to callers: bad parameters (caller error),
exhausted resource budgets (work refused, not wrong), and broken internal
contracts (an exact identity that must hold failed to hold).  The CLI maps
these onto distinct exit codes.
"""


class ParameterError(ValueError):
    """Arguments violate a documented precondition."""


class BudgetError(RuntimeError):
    """An enumeration or swap budget would be exceeded; nothing was computed."""


class ContractError(RuntimeError):
    """An exact internal invariant failed (for example a division that the
    underlying algebra guarantees to be exact left a remainder)."""

