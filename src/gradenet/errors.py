"""Exception hierarchy shared across the package."""


class GradenetError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(GradenetError):
    """The input data is missing a required column."""


class ParseError(GradenetError):
    """A data cell could not be parsed or violates a field invariant."""


class InvalidArgumentError(GradenetError, ValueError):
    """An argument is outside the documented domain of an operation."""


class UndefinedCorrelationError(GradenetError):
    """A correlation is undefined (zero variance or all-tied input)."""


class InsufficientDataError(GradenetError):
    """Fewer usable data points than the operation requires."""


class UndefinedZScoreError(GradenetError):
    """A z-score is undefined because the ensemble standard deviation is zero."""


class EnsembleDegenerateError(GradenetError):
    """More than half of the ensemble replicates were undefined."""

    def __init__(self, statistic: str, dropped: int, replicates: int):
        super().__init__(
            f"ensemble degenerate for {statistic}: "
            f"{dropped} of {replicates} replicates undefined"
        )
        self.statistic = statistic
        self.dropped = dropped
        self.replicates = replicates


class GenerationError(GradenetError):
    """The synthetic planner could not produce a valid campaign."""
