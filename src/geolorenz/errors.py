"""Exception hierarchy. CLI exit codes key off these classes:
precondition violations exit 3, config problems exit 4, axiom or
hypothesis failures are report content and exit 2 at the CLI layer.
"""


class GeolorenzError(Exception):
    pass


class PreconditionError(GeolorenzError):
    """An operation was called outside its contract."""


class DomainError(PreconditionError):
    """A point lies outside the map or roof domain (x = 0, |x| > 1)."""


class InadmissibleWordError(PreconditionError):
    pass


class EmptyHorseshoeError(PreconditionError):
    """x_gap pruned every vertex."""


class BracketFailureError(PreconditionError):
    """Equilibrium-family pressure range never bracketed the target."""

    def __init__(self, message, achieved_range=None):
        super().__init__(message)
        self.achieved_range = achieved_range


class EtaTooLargeError(PreconditionError):
    """Bump radius violates the small-ball hypothesis for a catalog measure."""

    def __init__(self, message, offending_measure=None):
        super().__init__(message)
        self.offending_measure = offending_measure


class ConfigError(GeolorenzError):
    """Config file problem; carries a line-precise diagnostic."""
