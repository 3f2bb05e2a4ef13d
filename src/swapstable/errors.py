"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all swapstable errors."""


def verify(ok, what):
    """Raise Error naming an output check that failed; runs under -O too."""
    if not ok:
        raise Error("output check failed: %s" % what)


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
