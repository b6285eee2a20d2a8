"""Exception types shared across the package."""


class SpdclabError(Exception):
    """Base class; the CLI maps these to exit code 1."""


class DomainError(SpdclabError):
    """Input outside the physical or numerical validity range."""


class CoverageError(SpdclabError):
    """A sampling grid does not cover the support of the quantity on it."""

    def __init__(self, message, truncated_fraction=None):
        super().__init__(message)
        self.truncated_fraction = truncated_fraction


class SolverError(SpdclabError):
    """Root finding failed (no bracket, no convergence)."""


class AlignmentError(SpdclabError):
    """Two tables that must be row-aligned are not."""

    def __init__(self, message, unmatched=()):
        super().__init__(message)
        self.unmatched = list(unmatched)


class TableParseError(SpdclabError):
    """A data file violates its schema."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ConfigError(TableParseError):
    """A config file breaks its schema; the CLI maps this to exit code 2."""


class InputError(SpdclabError):
    """An input file cannot be read; the CLI maps this to exit code 2."""


class EstimateUndefinedError(SpdclabError):
    """An estimator hit a zero denominator; carries the raw counts."""

    def __init__(self, message, counts=None):
        super().__init__(message)
        self.counts = counts
