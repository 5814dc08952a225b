"""Matrix file formats.

Two interchange formats:
  * plain-text CSV, one row per line, decimal floats
  * binary: header of two little-endian uint32 (rows, cols), then
    rows*cols little-endian float64 values in row-major order
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .vectors import as_matrix

_HEADER = struct.Struct("<II")


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no rows")
    return as_matrix(np.array(rows, dtype=np.float64))


def write_matrix_csv(path, m) -> None:
    arr = as_matrix(m)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_matrix_bin(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: missing header")
    rows, cols = _HEADER.unpack_from(raw)
    if rows == 0 or cols == 0:
        raise ParseError(f"{path}: zero dimension in header ({rows}x{cols})")
    expected = _HEADER.size + rows * cols * 8
    if len(raw) < expected:
        raise ParseError(
            f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(raw)}"
        )
    if len(raw) > expected:
        raise ParseError(
            f"{path}: header declares {expected} bytes for {rows}x{cols}, file has {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=_HEADER.size)
    return as_matrix(data.reshape(rows, cols).astype(np.float64))


def write_matrix_bin(path, m) -> None:
    arr = as_matrix(m)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    """Read a matrix, dispatching on extension (.bin/.dat binary, else CSV)."""
    suffix = Path(path).suffix.lower()
    if suffix in (".bin", ".dat"):
        return read_matrix_bin(path)
    return read_matrix_csv(path)
