"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: DataError -> 2,
NumericalError -> 3.
"""


class RfadError(Exception):
    """Base class for all toolkit errors."""


class DataError(RfadError, ValueError):
    """Malformed or out-of-contract input data."""


class NumericalError(RfadError, ArithmeticError):
    """A numerical operation failed (singular matrix, non-convergence)."""


class SingularMatrixError(NumericalError):
    """Matrix solve failed; carries the estimated condition number."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NotConvergedError(NumericalError):
    """No window length met the convergence criterion.

    ``delta`` is the convergence error at the full series length.
    """

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class HandUnreadError(DataError):
    """No channel of the hand produced a reading."""


class UnclassifiableError(DataError):
    """Value falls outside every class interval.

    ``distance`` is the gap to the nearest interval edge.
    """

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance
