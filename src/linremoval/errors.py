"""Shared exception types.

Every error the library raises deliberately is one of these, and the CLI
maps each to its own exit code: SchemaError 2, PreconditionError 3,
BudgetExceededError 4, InfeasibleRemovalError 5, InvariantError 6.  Tests
can assert on the exact failure mode instead of a bare ValueError.
"""


class SchemaError(ValueError):
    """Input JSON does not match the documented schema."""


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured candidate budget.

    Exceeding the budget is always an error, never a truncated answer.
    """


class InfeasibleRemovalError(ValueError):
    """No removal set exists under the requested coordinate protection."""


class InvariantError(RuntimeError):
    """A result failed the library's own check of it: a fault in the
    library, never in the input.  Unlike an assert statement, the check
    stays under python -O."""
