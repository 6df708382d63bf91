"""Exception hierarchy shared across the library."""


class EpcagError(Exception):
    """Base class for all errors raised by epcag-lab.

    ``exit_code`` and ``label`` are what the command line returns and
    prints for the error; a subclass overrides them when its class of
    failure has an exit code of its own.
    """

    exit_code = 1
    label = "error"


class InvalidParameterError(EpcagError):
    """An argument violates a documented precondition."""


class OutOfWindowError(EpcagError):
    """A time query falls outside the grid's working window."""


class ExpressionError(EpcagError):
    """Syntax or name error while parsing an expression.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class EvaluationError(EpcagError):
    """Runtime domain error (log of non-positive, division by zero)."""


class ConfigError(EpcagError):
    """Bad config file: unknown keys, missing sections, malformed values."""


class NoDichotomyError(EpcagError):
    """The coefficient matrix has an eigenvalue too close to the imaginary axis."""


class UnsupportedSystemError(EpcagError):
    """The coefficient matrix is outside the supported reduction classes."""


class IntegrationFailureError(EpcagError):
    """Numerical integration could not be completed."""

    exit_code = 3
    label = "integration failure"


class BlowUpError(IntegrationFailureError):
    """Solution norm exceeded the overflow guard."""

    def __init__(self, message, t=None):
        self.t = t
        super().__init__(message)


class ConvergenceError(EpcagError):
    """Fixed-point iteration did not converge within the iteration budget."""

    def __init__(self, message, last_ratio=None):
        self.last_ratio = last_ratio
        super().__init__(message)


class ConditionError(EpcagError):
    """A structural hypothesis check failed (zero nonlinearity at origin,
    contraction condition, periodicity of coefficients or grid)."""

    exit_code = 4
    label = "condition check failed"
