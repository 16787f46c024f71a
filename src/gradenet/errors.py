"""Exception hierarchy shared across the package."""


class GradenetError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(GradenetError):
    """The input has no header row, or its header misses or repeats a required column."""


class ParseError(GradenetError):
    """A data cell could not be parsed or violates a field invariant."""


class InvalidArgumentError(GradenetError, ValueError):
    """An argument is outside the documented domain of an operation."""


class InsufficientDataError(GradenetError):
    """Fewer usable data points than the operation requires."""


class GenerationError(GradenetError):
    """The synthetic planner could not produce a valid campaign."""
