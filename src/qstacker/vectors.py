"""Classical vectors/matrices and their amplitude-encoded quantum states.

A real vector x is mapped to the normalized state x/||x|| while ||x|| is kept
as classical metadata, so inner products of encoded states can be rescaled
back to classical dot products. Zero vectors encode to a sentinel state with
source_norm 0; downstream reconstruction forces those products to zero
instead of dispatching an undefined normalized state. Every norm comes from
one rule, _norm, so encode's sentinel and the row/column norms agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch


def as_vector(v) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("vector contains NaN or Inf")
    return arr


def as_matrix(m) -> np.ndarray:
    """Validate and return a finite 2-D float64 matrix."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.size < 1:
        raise ShapeMismatch(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("matrix contains NaN or Inf")
    return arr


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
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.source_norm == 0.0

    @property
    def probabilities(self) -> np.ndarray:
        return self.amplitudes ** 2


# below this norm the sum of squares has left float64's normal range
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _norm(arr: np.ndarray, axis: int | None = None):
    """Euclidean norm of a vector (axis None) or of each row/column.

    Where the plain sum of squares overflows to inf or underflows below the
    normal range, the entries are first divided by their largest magnitude;
    everywhere else the result is np.linalg.norm's, bit for bit.
    """
    with np.errstate(over="ignore"):  # an inf here is rescued below
        if axis is None:  # np.linalg.norm's arithmetic, without its dispatch cost
            plain = lo = hi = math.sqrt(arr.dot(arr))
        else:
            plain = np.linalg.norm(arr, axis=axis)
            lo, hi = plain.min(), plain.max()
    if _SQRT_TINY <= lo and hi < math.inf:
        return plain
    scale = np.max(np.abs(arr), axis=axis, keepdims=True)
    scaled = np.linalg.norm(arr / np.where(scale == 0.0, 1.0, scale), axis=axis)
    rescue = np.isinf(plain) | (plain < _SQRT_TINY)
    return np.where(rescue, scaled * scale.reshape(np.shape(plain)), plain)


def encode(v) -> EncodedState:
    """Amplitude-encode a real vector: amplitudes = v/||v||, norm tracked.

    The zero vector returns the sentinel (all-zero amplitudes, norm 0).
    """
    arr = as_vector(v)
    norm = float(_norm(arr))
    if norm == 0.0:
        return EncodedState(np.zeros_like(arr), 0.0)
    return EncodedState(arr / norm, norm)


def prepare_all(am: np.ndarray, bm: np.ndarray) -> tuple[list, list]:
    """Encode every row of A and every column of B, once each.

    Takes arrays that are already validated and shape-checked (matmul's
    as_matrix results); returns (row_states, col_states), rows(A) + cols(B)
    encode calls, with zero vectors kept as sentinels.
    """
    row_states = [encode(np.ascontiguousarray(am[i, :])) for i in range(am.shape[0])]
    col_states = [encode(np.ascontiguousarray(bm[:, j])) for j in range(bm.shape[1])]
    return row_states, col_states
