"""Errors shared across the package."""


class BudgetExceededError(RuntimeError):
    """A configured resource cap (pair count, basis size, subset count) was hit."""


class StabilizationError(RuntimeError):
    """The monomial-algebra box is too small to show the conductor's stable
    region; retry with a larger "box"."""
