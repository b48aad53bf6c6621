"""Exception hierarchy and CLI exit codes."""


class KnnSweepError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ParseError(KnnSweepError):
    """CSV cell failed to parse; carries row and column of the offender."""

    exit_code = 3

    def __init__(self, row, column, message):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column


class EmptyDataset(KnnSweepError):
    exit_code = 4


class SingleClass(KnnSweepError):
    exit_code = 5


class NonFiniteFeature(KnnSweepError):
    exit_code = 6

    def __init__(self, row, column):
        super().__init__(f"non-finite feature value at row {row}, column {column!r}")
        self.row = row
        self.column = column


class BadFoldCount(KnnSweepError):
    exit_code = 7


class TooManyFolds(KnnSweepError):
    exit_code = 8


class BadParams(KnnSweepError):
    exit_code = 9


class DimensionMismatch(KnnSweepError):
    exit_code = 10


class MemoryBudgetExceeded(KnnSweepError):
    exit_code = 11

    def __init__(self, required, budget):
        super().__init__(
            f"the run needs {required} bytes of working memory, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class InconsistentFolds(KnnSweepError):
    exit_code = 12


class InconsistentInputs(KnnSweepError):
    exit_code = 13


class EmptyNeighborhood(KnnSweepError):
    exit_code = 14


class KTooLarge(KnnSweepError):
    exit_code = 15


class IoError(KnnSweepError):
    exit_code = 16


class ValidationError(KnnSweepError):
    """Bad CLI configuration (mode/flag combinations)."""

    exit_code = 2
