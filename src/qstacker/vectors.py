"""Classical vectors/matrices and their amplitude-encoded quantum states.

A real vector x is mapped to the normalized state x/||x|| while ||x|| is kept
as classical metadata, so inner products of encoded states can be rescaled
back to classical dot products. Zero vectors encode to a sentinel state with
source_norm 0; downstream reconstruction forces those products to zero
instead of dispatching an undefined normalized state. Every norm comes from
one rule, _unit_rows, which takes columns as rows of the transpose and a
vector as a one-row matrix, so encode and the row/column norms agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch


def _finite(v, ndim: int, kind: str) -> np.ndarray:
    """Validate and return a nonempty finite float64 array; kind names it in errors."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != ndim or arr.size < 1:
        raise ShapeMismatch(f"expected a {ndim}-D {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{kind} contains NaN or Inf")
    return arr


def as_matrix(m) -> np.ndarray:
    """Validate and return a finite 2-D float64 matrix."""
    return _finite(m, 2, "matrix")


@dataclass(frozen=True)
class EncodedState:
    """Normalized signed amplitudes plus the Euclidean norm of the source.

    amplitudes are a_i = +/- sqrt(p_i); the sign carries the only phase
    freedom a real-valued pipeline needs. source_norm == 0 marks the
    zero-vector sentinel whose amplitudes are all zero.
    """

    amplitudes: np.ndarray
    source_norm: float

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.float64)  # its own copy, frozen below
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _wrap(cls, amplitudes: np.ndarray, source_norm: float) -> EncodedState:
        """A state over a read-only float64 row that no caller holds a writable
        reference to, kept without the copy __post_init__ makes."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "source_norm", source_norm)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.source_norm == 0.0


def _unit_rows(rows: np.ndarray):
    """(unit rows, mantissas, exponents) of a 2-D array, in C order whatever
    the input's layout.

    Each row is divided exactly by 2**e, the power of two of its largest
    magnitude, so its sum of squares, taken pairwise along the row, lies in
    [0.25, len(row)): ||row|| = mantissa * 2**e. A zero row gives 0, 0, zeros.
    The rows are made C-contiguous first: over a Fortran-ordered array the
    sum runs down the columns instead, and its last bit can differ.
    """
    rows = np.ascontiguousarray(rows)
    _, exp = np.frexp(np.abs(rows).max(axis=1))
    unit = np.ldexp(rows, -exp[:, None])
    mant = np.sqrt(np.add.reduce(unit * unit, axis=1))
    unit /= np.where(mant == 0.0, 1.0, mant)[:, None]  # a zero row stays zero
    return unit, mant, exp


def _states(unit, mant, exp) -> list:
    """One EncodedState per unit row of a _unit_rows triple; the states share
    one read-only copy of the rows rather than copying a row each."""
    with np.errstate(over="ignore"):  # a norm past float64's range reads inf
        norms = np.ldexp(mant, exp).tolist()
    amplitudes = np.array(unit)
    amplitudes.setflags(write=False)
    return list(map(EncodedState._wrap, amplitudes, norms))


def encode(v) -> EncodedState:
    """Amplitude-encode a real vector: amplitudes = v/||v||, norm tracked.

    The zero vector returns the sentinel (all-zero amplitudes, norm 0).
    """
    return _states(*_unit_rows(_finite(v, 1, "vector")[None, :]))[0]


def prepare_all(a_rows, bt_rows) -> tuple[list, list]:
    """(row_states, col_states) from matmul._prepare's _unit_rows triples of A
    and of B transposed: one state per row and column, zero vectors as sentinels."""
    return _states(*a_rows), _states(*bt_rows)
