"""Exception taxonomy shared across the library.

Every error raised by qstacker derives from QStackerError, so callers can
catch one type at the CLI boundary and map it to an exit code. A caller's bad
argument is an InvalidArgument (usage error); every other QStackerError is a
data error.
"""

import operator


class QStackerError(Exception):
    """Base class for all qstacker errors."""


class InvalidArgument(QStackerError, ValueError):
    """A count or option argument is out of range (shots, repetitions, n...)."""


def as_int(value, name: str, minimum: int | None = None) -> int:
    """value as a Python int (NumPy integers included), at least minimum if given.

    Floats and strings are refused rather than truncated or parsed; anything
    refused raises InvalidArgument.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise InvalidArgument(f"{name} must be >= {minimum}, got {number}")
    return number


class NonFiniteInput(QStackerError):
    """An input vector or matrix contains NaN or Inf entries."""


class ShapeMismatch(QStackerError):
    """Matrix/vector shapes do not chain for the requested operation."""


class DimMismatch(QStackerError):
    """Two encoded states have different dimensions."""


class ZeroState(QStackerError):
    """Operation undefined on the zero-vector sentinel state."""


class DimNotPowerOfTwo(QStackerError):
    """Circuit-level verification requires a 2^n dimensional state."""


class DimTooLarge(QStackerError):
    """State too large for explicit statevector verification."""


class BudgetTooSmall(InvalidArgument):
    """Qubit budget cannot hold even a single Hadamard test."""


class InvalidEpsilon(InvalidArgument):
    """Target precision must lie in (0, 1)."""


class PlanJobMismatch(QStackerError):
    """Execution plan and job buffer disagree on job count, or an entry is not a job."""


class InvalidDistribution(QStackerError):
    """Probabilities are negative or do not sum to one."""


class InvalidSupport(InvalidArgument):
    """Requested support size is out of range for the state family."""


class ConstantSeries(QStackerError):
    """Correlation undefined when one series is constant."""


class TooFewPoints(QStackerError):
    """Correlation requires at least three points."""


class NoCrossing(QStackerError):
    """Variance curves do not intersect inside the shared entropy range."""


class InsufficientOverlap(QStackerError):
    """Sweeps do not span a common entropy interval."""


class InvalidEntropy(InvalidArgument):
    """Entropy argument outside [0, H_max]."""


class ParseError(QStackerError):
    """Input file could not be parsed."""


class MagicMismatch(ParseError):
    """IDX file magic number does not match the expected format."""


class TruncatedFile(ParseError):
    """File ends before the declared payload is complete."""


class EmptyDataset(QStackerError):
    """Training requires at least one sample."""
