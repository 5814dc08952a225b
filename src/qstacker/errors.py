"""Exception taxonomy shared across the library.

Every error raised by qstacker derives from QStackerError, so callers can
catch one type at the CLI boundary and map it to an exit code. A caller's bad
argument is an InvalidArgument (usage error); every other QStackerError is a
data error. A class exists only where a caller can act on it: the message,
not the class, tells apart the cases that share one.
"""

import operator


class QStackerError(Exception):
    """Base class for all qstacker errors."""


class InvalidArgument(QStackerError, ValueError):
    """An argument is out of range: a count (shots, repetitions, n, qubit budget,
    series length), an option name, an epsilon, an entropy or a support."""


def as_int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as a Python int (NumPy integers included), within minimum and
    maximum where given.

    Floats and strings are refused rather than truncated or parsed; anything
    refused raises InvalidArgument.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise InvalidArgument(f"{name} must be >= {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise InvalidArgument(f"{name} must be <= {maximum}, got {number}")
    return number


def as_enum(enum, value, name: str):
    """value as a member of enum: a member itself, or the value string of one.

    Anything else raises InvalidArgument, naming the accepted values.
    """
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(member.value for member in enum)
        raise InvalidArgument(f"{name} must be one of {choices}, got {value!r}") from None


class NonFiniteInput(QStackerError):
    """An input vector or matrix contains NaN or Inf entries."""


class ShapeMismatch(QStackerError):
    """Shapes or dimensions do not fit the operation: operands that do not
    chain, states of different dimensions, or a state the explicit circuit
    cannot hold (not 2^n, or too many qubits)."""


class ZeroState(QStackerError):
    """Operation undefined on the zero-vector sentinel state."""


class PlanJobMismatch(QStackerError):
    """An execution plan and its job lists (states and seeds) disagree on the job count."""


class InvalidDistribution(QStackerError):
    """Probabilities are negative or do not sum to one."""


class ConstantSeries(QStackerError):
    """Correlation undefined when one series is constant."""


class NoCrossing(QStackerError):
    """Variance curves do not cross: no order change inside the shared
    entropy range, or no shared range at all."""


class ParseError(QStackerError):
    """Input file could not be parsed: malformed text, a wrong magic number,
    or a payload shorter or longer than its header declares."""


class EmptyDataset(QStackerError):
    """Training requires at least one sample."""
