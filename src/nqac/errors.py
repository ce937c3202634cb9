"""Exception types shared across the package."""


class NqacError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NqacError, ValueError):
    """A vector or configuration has the wrong length for the problem."""


class CapacityExceeded(NqacError, ValueError):
    """An input is too large for the requested operation (e.g. exhaustive search)."""


class DomainError(NqacError, ValueError):
    """A parameter is outside its allowed domain."""


class ScheduleError(DomainError):
    """An annealing schedule violates monotonicity or coverage requirements."""


class EmbeddingNotFound(NqacError, RuntimeError):
    """No embedding was found: no tried placement fit the graph."""


class InvalidEmbedding(NqacError, ValueError):
    """An embedding failed validation; carries the validation report."""

    def __init__(self, report):
        self.report = report
        super().__init__("invalid embedding: " + "; ".join(report.violations))


class ConfigError(NqacError, ValueError):
    """An experiment configuration is malformed or references missing files."""
