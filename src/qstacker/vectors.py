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
from dataclasses import dataclass, field

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


def row_norms(m) -> np.ndarray:
    """Euclidean norm of every row."""
    return _norm(as_matrix(m), axis=1)


def col_norms(m) -> np.ndarray:
    """Euclidean norm of every column."""
    return _norm(as_matrix(m), axis=0)


@dataclass
class PrepCache:
    """Memoized state-preparation cache keyed by (matrix identity, axis, index).

    Keys use object identity rather than content hashes, so duplicate rows in
    one matrix occupy distinct entries (one redundant O(N) encode, no
    floating-point hashing pitfalls). The cache pins a reference to each
    registered matrix so id() stays stable for its lifetime.
    """

    _states: dict = field(default_factory=dict)
    _pinned: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def __len__(self) -> int:
        return len(self._states)

    def _key(self, matrix: np.ndarray, axis: str, index: int):
        self._pinned[id(matrix)] = matrix
        return (id(matrix), axis, index)

    def get_row(self, matrix: np.ndarray, i: int) -> EncodedState:
        return self._lookup(matrix, "row", i, lambda: matrix[i, :])

    def get_col(self, matrix: np.ndarray, j: int) -> EncodedState:
        return self._lookup(matrix, "col", j, lambda: matrix[:, j])

    def _lookup(self, matrix, axis, index, extract) -> EncodedState:
        key = self._key(matrix, axis, index)
        state = self._states.get(key)
        if state is not None:
            self.hits += 1
            return state
        self.misses += 1
        state = encode(np.ascontiguousarray(extract()))
        self._states[key] = state
        return state


def prepare_all(a, b, cache: PrepCache | None = None) -> PrepCache:
    """Encode every row of A and every column of B into the cache.

    Exactly rows(A) + cols(B) encode calls on a cold cache (2N for square
    inputs); repeat calls on the same arrays are pure hits.
    """
    am = as_matrix(a)  # asarray keeps identity for conforming float64 arrays
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ShapeMismatch(
            f"inner dimensions differ: {am.shape} x {bm.shape}"
        )
    if cache is None:
        cache = PrepCache()
    for i in range(am.shape[0]):
        cache.get_row(am, i)
    for j in range(bm.shape[1]):
        cache.get_col(bm, j)
    return cache
