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
    """A matrix is singular or near-singular.

    ``condition`` is its 1-norm condition number, taken from the one
    inverse computed: above 1/eps, NaN, or ``inf`` when the LU
    factorisation meets a zero pivot.
    """

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


class UncalibratedChannelError(DataError):
    """A channel that produced a reading has no code in the calibration baseline."""


class UnclassifiableError(DataError):
    """Value falls outside every class interval.

    ``distance`` is the gap to the nearest interval edge.
    """

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance
