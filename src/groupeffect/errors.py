"""Exception hierarchy.

Two branches matter for the CLI contract: ``DataError`` (bad input, exit
code 2) and ``NumericError`` (rank deficiency, degenerate variances and
other model-level failures, exit code 3).
"""


class GroupEffectError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GroupEffectError):
    """Problem with the input data or its selection (CLI exit code 2)."""


class NumericError(GroupEffectError):
    """Numeric or model-level failure (CLI exit code 3)."""


# --- numeric / linear algebra ---

class DimensionMismatchError(NumericError):
    pass


class RankDeficientError(NumericError):
    """A matrix expected to have full column rank does not.

    ``column`` identifies the first offending column (index, or name when
    raised for a regression design).
    """

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"rank deficient at column {column!r}")


class NonConvergenceError(NumericError):
    pass


# --- regression design / fitting ---

class RankDeficientDesignError(RankDeficientError):
    pass


class GroupTooSmallError(DataError):
    """A group has fewer than 2 rows; a reference level that is no group
    label is a group of 0 rows."""

    def __init__(self, label, count, message=None):
        self.label = label
        self.count = count
        super().__init__(message or f"group {label!r} has only {count} row(s); need at least 2")


class InsufficientRowsError(DataError):
    pass


class DegenerateResponseError(NumericError):
    pass


# --- effect sizes ---

class ZeroVarianceError(NumericError):
    pass


class ZeroSigmaError(NumericError):
    pass


class NonPositiveGammaError(NumericError):
    pass


class NonPositiveDfError(NumericError):
    pass


class SaturatedModelError(NumericError):
    pass


# --- data ingestion ---

class MissingColumnError(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} not found in header")


class NotBinaryGroupError(DataError):
    def __init__(self, labels):
        self.labels = tuple(labels)
        super().__init__(
            f"group column must have exactly 2 distinct values, got {list(labels)}"
        )


class EmptyAfterFilteringError(DataError):
    pass


class UnsortedEdgesError(DataError):
    pass


class DuplicateColumnError(DataError):
    def __init__(self, name, count):
        self.name = name
        self.count = count
        super().__init__(f"column {name!r} occurs {count} times in header")
