"""Exception types shared across the package, and the argument checks
that raise them."""

import math
import operator


class Error(Exception):
    """Base class for all swapstable errors."""


def verify(ok, what):
    """Raise Error naming an output check that failed; runs under -O too."""
    if not ok:
        raise Error("output check failed: %s" % what)


def check_integer(n, what):
    """n as an int; InvalidInput when it is not an integer (2.5, "3", None)."""
    try:
        return operator.index(n)
    except TypeError:
        raise InvalidInput("%s must be an integer, got %r" % (what, n)) from None


def check_budget(d, *, finite=False):
    """Raise InvalidInput unless the swap budget d is an int >= 0 or, unless
    finite, INFINITE (math.inf), which no cost exceeds.  Entry points whose
    budget bounds a slice or a range pass finite=True."""
    if d == math.inf and not finite:
        return
    if check_integer(d, "swap budget") < 0:
        raise InvalidInput("swap budget must be nonnegative, got %r" % (d,))


class ValidationError(Error):
    """A profile or raw input failed validation.

    Carries the full list of problems in ``issues`` so callers can report
    everything at once instead of fixing errors one by one.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class UnknownAgent(Error):
    """An agent name or index that does not exist in the profile."""


class NonAdjacentSwap(Error):
    """A swap was requested for two agents that are not adjacent in the list."""


class InvalidMatching(Error):
    """A matching is not valid against the profile it was checked against."""


class InvalidInput(Error):
    """An argument violates a documented precondition."""


class NotClosed(Error):
    """A rotation subset is not predecessor-closed."""


class NoSuccessorDefined(Error):
    """successor() was asked about an unmatched agent."""


class NotNearlyStable(Error):
    """A witness was requested for a matching that is not nearly stable."""


class TooLarge(Error):
    """An exhaustive enumeration or search would exceed its configured cap."""
