"""Exception hierarchy.

ValidationError and its subclasses map to CLI exit code 1 (bad input or
configuration); every other Ecol2Error maps to exit code 2 (runtime failure).
"""


class Ecol2Error(Exception):
    pass


class ValidationError(Ecol2Error):
    pass


class ParameterError(ValidationError):
    """Score parameters outside their legal ranges."""


class DomainError(ValidationError):
    """Metric inputs outside the domain of the score."""


class MetricError(ValidationError):
    """Malformed prediction/reference fields."""


class RegionError(ValidationError):
    """Unknown region code or malformed registry file."""


class IngestError(ValidationError):
    """Malformed external CSV input."""


class TrackingError(Ecol2Error):
    """Emission session misuse or unavailable power source."""


class LedgerError(Ecol2Error):
    """Unreadable, unwritable or corrupt record store."""


class SolverError(Ecol2Error):
    """Numerical solve failed (blow-up, non-finite state).

    row is the index of the failing row of a batched solve, else None.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
