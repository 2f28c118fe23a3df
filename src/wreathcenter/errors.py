"""Exception types shared across the package, and its one exact-division check.

Class sizes, degrees, |G| / chi(1), transport values and product
coefficients are all exact quotients, taken by `exact_quotient`.
"""


class WreathError(Exception):
    """Base class for all errors raised by this package."""


class NotContained(WreathError):
    """Multiset subtraction of partitions is undefined (some multiplicity would go negative)."""


class TooSmall(WreathError):
    """Requested padding target is smaller than the object being padded."""


class SizeMismatch(WreathError):
    """Sizes of the arguments are incompatible with the requested operation."""


class DimensionMismatch(WreathError):
    """Group elements live in different groups (k or n differ)."""


class DomainNotCovered(WreathError):
    """A partial permutation's domain is not contained in the required point set."""


class NotProper(WreathError):
    """A proper family (no 1-parts in the all-singletons component) was required."""


# the budget every enumeration and character route takes by default
DEFAULT_BUDGET = 10_000_000


# what a budget count counts, by the `what` of its BudgetExceeded; every other
# count is of enumerated elements
_UNITS = {"character table": "table entries", "transport evaluations": "transport values"}


class BudgetExceeded(WreathError):
    """A route would count more than the configured budget: elements, table entries or transport values."""

    def __init__(self, needed, budget, what="enumeration"):
        self.needed = needed
        self.budget = budget
        self.what = what
        unit = _UNITS.get(what, "elements")
        super().__init__(f"{what}: {needed} {unit} needed, budget is {budget}")


class InvariantViolation(WreathError):
    """An internal consistency check failed; results cannot be trusted."""


def exact_quotient(numerator: int, denominator: int, what) -> int:
    """numerator // denominator; a remainder raises InvariantViolation naming `what`.

    `what` is a label or a constant string, formatted only when the check fails.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantViolation(f"{what}: {numerator} / {denominator} is not an integer")
    return quotient
