"""Domain errors. Each maps to a CLI exit code."""


class AnetError(Exception):
    """Base class for all domain errors."""

    exit_code = 2


class UsageError(AnetError):
    """Bad invocation: unknown command, malformed argument, unreadable file."""

    exit_code = 1


class ValidationError(AnetError):
    """A network, machine, or parameter set violates its structural contract."""

    exit_code = 2


class ResourceBudgetError(AnetError):
    """An operation was refused because its admission bound was exceeded."""

    exit_code = 3


class DigitLimitError(ResourceBudgetError, ValueError):
    """A value to print passes Python's int-to-str digit limit.

    Still a ValueError, the error str() raises there, so callers that caught
    that keep working.
    """


class QueryGapError(AnetError):
    """The network failed to request the next symbol within its declared gap bound."""

    exit_code = 4
