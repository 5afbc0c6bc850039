"""Exception types shared across the package."""

# Python's own errors for an exhausted resource, each with the CLI's text
# for it: a verify check that raises one gives no verdict, and every verb
# exits 3.  Integer arithmetic overflows only where a size must fit a
# machine index, so OverflowError is one of them.
RESOURCE_FAILURES = {
    MemoryError: "out of memory",
    RecursionError: "recursion too deep",
    OverflowError: "a size past this machine's limits",
}
RESOURCE_ERRORS = tuple(RESOURCE_FAILURES)


class CatparkError(Exception):
    """Base class for all package-specific errors."""


class EnumerationCapError(CatparkError):
    """Projected enumeration size, or DP table size, exceeds the configured
    object cap.

    The message names the cap, not the projected count, which may have more
    digits than Python writes by default; ``projected`` keeps the count, or
    the lower bound past the cap at which the guard stopped counting."""

    def __init__(self, projected, cap, what="enumeration would yield"):
        super().__init__(
            f"{what} more than {cap} objects, exceeding the cap of {cap}"
        )
        self.projected = projected
        self.cap = cap


class LaneError(CatparkError):
    """A verify run's child process ended before it reported every scope of
    its lane."""


class NonMembershipError(CatparkError):
    """Input is not a member of the domain an inverse map expects."""


class InvalidCompositionError(CatparkError):
    """Component tuple does not recompose into a valid distribution."""


class HBasisError(CatparkError):
    """Polynomial is not a combination of complete homogeneous polynomials."""
