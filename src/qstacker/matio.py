"""Input files and matrix file formats.

Every input file is read here: text through `read_lines` (matrix CSV, IRIS
CSV, run files), binary through `read_payload` (binary matrix, IDX).
A matrix CSV holds one row per line, decimal floats. A binary matrix is a
header of two little-endian uint32 (rows, cols), then rows*cols
little-endian float64 values in row-major order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .vectors import _finite, as_matrix

_HEADER = struct.Struct("<II")
# IDX magic of a uint8 payload, by its number of dimensions
_IDX_MAGIC = {1: 0x00000801, 3: 0x00000803}


def read_lines(path, comment: str | None = None):
    """(line number, stripped text) of each non-blank line. Line numbers
    count every line of the file; text from `comment` on is dropped first."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if comment is not None:
            line = line.split(comment, 1)[0]
        line = line.strip()
        if line:
            yield lineno, line


def read_payload(path, header: struct.Struct, size) -> tuple[tuple, memoryview]:
    """The header fields of a file and a view of the payload after them.
    size(fields) is the payload length in bytes the header declares (it may
    refuse the header); any other length is a ParseError."""
    raw = Path(path).read_bytes()
    if len(raw) < header.size:
        raise ParseError(f"{path}: missing header")
    fields = header.unpack_from(raw)
    held, declared = len(raw) - header.size, size(fields)
    if held != declared:
        raise ParseError(f"{path}: payload holds {held} bytes, header declares {declared}")
    return fields, memoryview(raw)[header.size:]


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    for lineno, line in read_lines(path):
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no rows")
    return _finite(rows, 2, f"{path}: matrix")


def write_matrix_csv(path, m) -> None:
    arr = as_matrix(m)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_matrix_bin(path) -> np.ndarray:
    (rows, cols), payload = read_payload(path, _HEADER, lambda dims: dims[0] * dims[1] * 8)
    if rows == 0 or cols == 0:
        raise ParseError(f"{path}: zero dimension in header ({rows}x{cols})")
    data = np.frombuffer(payload, dtype="<f8")
    return _finite(data.reshape(rows, cols).astype(np.float64), 2, f"{path}: matrix")


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


def read_idx(path, ndim: int) -> np.ndarray:
    """The uint8 array of an IDX file of ndim dimensions (1: labels, 3: images):
    a big-endian magic and ndim big-endian uint32 sizes, then the values."""
    magic = _IDX_MAGIC[ndim]

    def size(fields):
        if fields[0] != magic:
            raise ParseError(f"{path}: magic 0x{fields[0]:08x}, expected 0x{magic:08x}")
        return math.prod(fields[1:])

    fields, payload = read_payload(path, struct.Struct(f">{1 + ndim}I"), size)
    return np.frombuffer(payload, dtype=np.uint8).reshape(fields[1:])
