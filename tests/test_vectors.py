import math
import re
import struct

import numpy as np
import pytest

from qstacker import encode
from qstacker.errors import NonFiniteInput, ParseError
from qstacker.matio import (
    read_matrix,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from qstacker.matmul import _prepare
from qstacker.vectors import _unit_rows, prepare_all


def _norms(triple):
    """The norms of a _unit_rows triple: mantissa * 2**exponent, inf past float64's range."""
    _, mant, exp = triple
    with np.errstate(over="ignore"):
        return np.ldexp(mant, exp)


def _col_norms(b):
    """B's column norms as matmul's _prepare takes them: rows of B transposed."""
    return _norms(_prepare(np.ones((1, b.shape[0])), b)[1])


class TestEncode:
    def test_unit_basis_vector(self):
        s = encode([1, 0, 0, 0])
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])
        assert s.source_norm == 1.0

    def test_three_four_five(self):
        s = encode([3, 4])
        assert np.allclose(s.amplitudes, [0.6, 0.8], atol=1e-15)
        assert s.source_norm == 5.0

    def test_sign_preserved(self):
        s = encode([1, -1])
        assert np.allclose(s.amplitudes, [0.70710678, -0.70710678], atol=1e-8)
        assert s.source_norm == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_zero_vector_sentinel(self):
        s = encode([0, 0])
        assert s.is_zero
        assert s.source_norm == 0.0
        assert np.array_equal(s.amplitudes, [0, 0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteInput):
            encode([1.0, float("nan")])
        with pytest.raises(NonFiniteInput):
            encode([1.0, float("inf")])

    def test_normalization_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 64))
            s = encode(v)
            assert abs(np.sum(s.amplitudes**2) - 1.0) <= 1e-12

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.normal(size=16)
            c = float(rng.uniform(0.1, 100.0))
            base, scaled = encode(v), encode(c * v)
            assert np.allclose(scaled.amplitudes, base.amplitudes, atol=1e-12)
            assert scaled.source_norm == pytest.approx(c * base.source_norm, rel=1e-12)

    def test_negation_flips_amplitudes_only(self):
        v = np.array([2.0, -1.0, 0.5])
        base, neg = encode(v), encode(-v)
        assert np.allclose(neg.amplitudes, -base.amplitudes, atol=1e-15)
        assert neg.source_norm == base.source_norm


class TestNorms:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_share_one_rule(self, scale):
        m = np.array([[3.0, 4.0], [0.0, 0.0]]) * scale
        norms = _norms(_unit_rows(m))
        assert norms[0] == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
        assert norms[1] == 0.0
        assert np.array_equal(_col_norms(m.T), norms)
        assert encode(m[0]).source_norm == norms[0]
        assert np.allclose(encode(m[0]).amplitudes, [0.6, 0.8], atol=1e-15)

    def test_ordinary_norms_are_numpy_bits(self):
        # one rule: numpy's pairwise row sum; a column is a row of the transpose
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 64)) * 10.0 ** rng.integers(-150, 150, size=(6, 1))
        rows = np.linalg.norm(m, axis=1)
        assert np.array_equal(_norms(_unit_rows(m)), rows)
        for t in (m, m.T, np.ascontiguousarray(m.T)):  # strided and contiguous columns
            assert np.array_equal(_col_norms(t), np.linalg.norm(np.ascontiguousarray(t.T), axis=1))
        for row, norm in zip(m, rows):
            assert encode(row).source_norm == norm

    def test_a_norm_past_the_float_range_reads_inf(self):
        # encode's rule: inf with no overflow warning, which the suite turns into an error
        m = np.array([[1.5e308, 1.5e308]])
        assert _norms(_unit_rows(m))[0] == math.inf
        assert _col_norms(m.T)[0] == math.inf
        assert encode(m[0]).source_norm == math.inf

    def test_identity_rows(self):
        assert np.array_equal(_norms(_unit_rows(np.eye(2))), [1, 1])

    def test_zero_row(self):
        assert np.array_equal(_norms(_unit_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))), [5, 0])

    def test_every_layout_gives_the_bits_of_the_c_order_rows(self):
        # the sum of squares runs along each row whatever the input's layout;
        # over a Fortran-ordered array it would run down the columns instead
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = rng.normal(size=(rng.integers(2, 9), rng.integers(2, 40)))
            want = [part.tobytes() for part in _unit_rows(m)]
            spread = np.zeros((2 * m.shape[0], 2 * m.shape[1]))
            spread[::2, ::2] = m
            for layout in (np.asfortranarray(m), np.ascontiguousarray(m.T).T, spread[::2, ::2]):
                assert [part.tobytes() for part in _unit_rows(layout)] == want

    def test_a_one_row_a_stacked_on_b_transposed_keeps_the_bits(self):
        # np.concatenate of a 1 x k A and B transposed is Fortran-ordered
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = rng.integers(2, 40)
            a, b = rng.normal(size=(1, k)), rng.normal(size=(k, rng.integers(2, 8)))
            assert np.concatenate((a, b.T)).flags.f_contiguous
            got_a, got_b = _prepare(a, b)
            for got, rows in ((got_a, a), (got_b, np.ascontiguousarray(b.T))):
                assert [part.tobytes() for part in got] == [part.tobytes() for part in _unit_rows(rows)]

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(8, 8))
        expected_rows = [math.sqrt(sum(x * x for x in m[i, :])) for i in range(8)]
        expected_cols = [math.sqrt(sum(x * x for x in m[:, j])) for j in range(8)]
        assert np.allclose(_norms(_unit_rows(m)), expected_rows, atol=1e-12)
        assert np.allclose(_col_norms(m), expected_cols, atol=1e-12)


class TestPrepareAll:
    def test_states_are_encode_of_each_row_and_column(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(4, 9)), rng.normal(size=(9, 5))
        a[1] = a[0]  # duplicate rows
        a[2] = 0.0
        b[:, 3] = 0.0
        row_states, col_states = prepare_all(*_prepare(a, b))
        assert (len(row_states), len(col_states)) == (4, 5)
        for states, vectors in ((row_states, a), (col_states, b.T)):
            for state, v in zip(states, vectors):
                fresh = encode(v)
                assert np.array_equal(state.amplitudes, fresh.amplitudes)
                assert state.source_norm == fresh.source_norm
        assert np.array_equal(row_states[0].amplitudes, row_states[1].amplitudes)
        assert row_states[2].is_zero and col_states[3].is_zero
        assert np.array_equal(row_states[2].amplitudes, np.zeros(9))


class TestMatrixIO:
    def test_csv_roundtrip(self, tmp_path):
        m = np.array([[1.5, -2.25], [0.0, 3.75]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(5, 3))
        path = tmp_path / "m.bin"
        write_matrix_bin(path, m)
        assert np.array_equal(read_matrix_bin(path), m)

    def test_binary_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, [[1.0, 2.0]])
        raw = path.read_bytes()
        assert raw[:8] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert np.frombuffer(raw[8:], dtype="<f8").tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("resize, message", [
        (lambda raw: raw[:-8], "payload holds 120 bytes, header declares 128"),
        (lambda raw: raw + bytes(8), "payload holds 136 bytes, header declares 128"),
    ], ids=["one-double-short", "one-double-extra"])
    def test_truncated_binary(self, tmp_path, resize, message):
        """The payload must be exactly the size the header declares."""
        path = tmp_path / "m.bin"
        write_matrix_bin(path, np.ones((4, 4)))
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(ParseError, match=message):
            read_matrix_bin(path)

    @pytest.mark.parametrize("payload, message", [
        (b"", r"zero dimension in header \(0x4\)"),
        (bytes(32), "payload holds 32 bytes, header declares 0"),
    ], ids=["empty", "one-row"])
    def test_zero_dimension_header(self, tmp_path, payload, message):
        path = tmp_path / "m.bin"
        path.write_bytes((0).to_bytes(4, "little") + (4).to_bytes(4, "little") + payload)
        with pytest.raises(ParseError, match=message):
            read_matrix_bin(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_nonfinite_csv_entry_names_the_file(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0\n3.0,{value}\n")
        with pytest.raises(NonFiniteInput, match=f"^{re.escape(str(path))}: matrix contains NaN or Inf$"):
            read_matrix(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_nonfinite_binary_entry_names_the_file(self, tmp_path, value):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<II2d", 1, 2, 1.0, value))
        with pytest.raises(NonFiniteInput, match=f"^{re.escape(str(path))}: matrix contains NaN or Inf$"):
            read_matrix(path)

    def test_csv_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)

    def test_read_matrix_dispatches_on_extension(self, tmp_path):
        m = np.array([[9.0]])
        write_matrix_bin(tmp_path / "m.bin", m)
        write_matrix_csv(tmp_path / "m.csv", m)
        assert np.array_equal(read_matrix(tmp_path / "m.bin"), m)
        assert np.array_equal(read_matrix(tmp_path / "m.csv"), m)


def test_encoded_state_is_immutable():
    s = encode([1.0, 1.0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0


def test_prepared_states_are_read_only_and_apart_from_the_operands():
    a, b = np.array([[3.0, 4.0], [1.0, 0.0]]), np.array([[1.0], [2.0]])
    a_rows, b_cols = _prepare(a, b)
    row_states, col_states = prepare_all(a_rows, b_cols)
    a_rows[0][0, 0] = b_cols[0][0, 0] = 9.0  # the unit rows stay the caller's
    for state in (*row_states, *col_states):
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0
    assert row_states[0].amplitudes.tolist() == [0.6, 0.8]
    assert col_states[0].amplitudes.tolist() == encode([1.0, 2.0]).amplitudes.tolist()
