"""Exception hierarchy, and the budget that work is checked against.

Everything raised on purpose by this package derives from SkeinError, so
callers can catch one type.  The CLI maps subclasses to exit codes.
A :class:`Budget`'s checks raise every width, network and time BudgetError.
"""

import time
from typing import NamedTuple, Optional


class SkeinError(Exception):
    """Base class for all skeinkit errors."""


class PDError(SkeinError):
    """A planar-diagram code failed to parse or validate."""


class ExactnessError(SkeinError):
    """An operation that must be exact (division) was not.

    Raised e.g. when exact_divide is given a non-divisor, or when a
    division step would need a non-integer coefficient.
    """


class DegreeError(SkeinError):
    """Degree of the zero polynomial (or zero rational) was requested."""


class AdmissibilityError(SkeinError):
    """A color triple violates the parity/triangle conditions."""


class BudgetError(SkeinError):
    """A configured resource budget (width, crossings, terms, time) was hit.

    Attributes:
        budget: name of the budget that tripped.
        limit: the configured limit.
        needed: the observed requirement, when known.
    """

    def __init__(self, budget, limit, needed=None, detail=""):
        self.budget = budget
        self.limit = limit
        self.needed = needed
        msg = f"budget '{budget}' exceeded (limit {limit}"
        if needed is not None:
            msg += f", needed {needed}"
        msg += ")"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class Budget(NamedTuple):
    """The width, network and time limits of one computation, passed down
    as ``budget=``.  ``deadline`` is a ``time.monotonic()`` instant, None
    for no time limit; a tripped deadline reports ``time_limit``, the
    seconds it was set from, as its limit (else the deadline)."""

    max_width: int = 40             # open strand-ends of a sweep plan
    max_network: int = 2_000_000    # (state, box term) pairs composed
    deadline: Optional[float] = None
    time_limit: Optional[float] = None

    def check_width(self, needed: int) -> None:
        if needed > self.max_width:
            raise BudgetError("max_width", self.max_width, needed=needed,
                              detail="try another crossing order")

    def check_network(self, needed: int) -> None:
        if needed > self.max_network:
            raise BudgetError("max_network", self.max_network, needed=needed,
                              detail="network contraction too large")

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetError("time_limit", self.time_limit or self.deadline,
                              detail="wall-clock limit hit")


class StabilizationError(SkeinError):
    """Requested stable coefficients do not exist at the verified depth.

    Attributes:
        color: the color N at which the witness comparison failed.
        mismatch_index: offset of the first mismatching normalized
            coefficient (in the series' own step; whole powers of q
            for knots).
    """

    def __init__(self, color, mismatch_index, detail=""):
        self.color = color
        self.mismatch_index = mismatch_index
        msg = (f"coefficient series not stable: colors {color} and {color + 1} "
               f"disagree at offset {mismatch_index}")
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InternalError(SkeinError):
    """An internal invariant was violated — a bug, not a user error."""
