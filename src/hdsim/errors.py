"""Exception hierarchy for the toolkit.

All toolkit errors derive from :class:`HdsimError` so callers can catch one
type at a boundary (the CLI maps them to exit codes).
"""


class HdsimError(Exception):
    """Base class for all toolkit errors."""


class ArgumentError(HdsimError, ValueError):
    """A caller violated a documented precondition."""


class NumericalFailureError(HdsimError):
    """A non-finite state/derivative or a singular matrix was encountered.

    Carries the time at which the failure occurred when known, and the
    partial trajectory accumulated so far when raised from a simulation.
    """

    def __init__(self, message, time=None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class AmbiguousTransitionError(HdsimError):
    """Two guards became enabled within one event-localization tolerance."""

    def __init__(self, message, edges=()):
        super().__init__(message)
        self.edges = tuple(edges)


class GrazingError(HdsimError):
    """A state-dependent guard was hit tangentially (no transversality)."""


class ConfigError(HdsimError):
    """A configuration file could not be parsed or validated."""
