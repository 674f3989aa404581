"""Exception types shared across the kernel."""


class GradedKernelError(Exception):
    """Base class for all kernel errors."""


class GradingMismatch(GradedKernelError):
    """An operand has the wrong parity or weight for the requested operation."""


class InhomogeneousSeries(GradingMismatch):
    """A series mixes terms of different parity or weight where one bigrading is required."""


class ZeroSeries(GradedKernelError):
    """The zero series has no bigrading."""


class ChartMismatch(GradedKernelError):
    """Operands live on different charts."""


class NotHomological(GradedKernelError):
    """The vector field is not odd with vanishing self-commutator."""


class NonConvergent(GradedKernelError):
    """A fixed-point iteration failed to stabilize within its filtration bound."""


class ParityViolation(GradedKernelError):
    """An assignment sends a variable to a multivector of the wrong parity."""


class MissingBinding(GradedKernelError):
    """An assignment does not cover every variable of the expression."""


class ProblemSyntaxError(GradedKernelError):
    """Problem file could not be parsed; carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class UnknownNameError(ProblemSyntaxError):
    """A referenced name was never declared."""


class ExponentOverflow(GradedKernelError):
    """A product has an exponent or fiber degree above graded_core.EXPONENT_BOUND."""
