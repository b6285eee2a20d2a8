"""Exception types shared across the package.  Each carries everything it
knows in its message, which is what the CLI prints."""


class SpdclabError(Exception):
    """Base class; the CLI maps these to exit code 1."""


class DomainError(SpdclabError):
    """Input outside the physical or numerical validity range."""


class CoverageError(SpdclabError):
    """A sampling grid does not cover the support of the quantity on it."""


class SolverError(SpdclabError):
    """Root finding failed (no bracket, no convergence)."""


class AlignmentError(SpdclabError):
    """Two tables that must be row-aligned are not."""


class TableParseError(SpdclabError):
    """A data file violates its schema."""


class ConfigError(TableParseError):
    """A config file breaks its schema; the CLI maps this to exit code 2."""


class InputError(SpdclabError):
    """An input file cannot be read; the CLI maps this to exit code 2."""


class EstimateUndefinedError(SpdclabError):
    """An estimator hit a zero denominator."""
