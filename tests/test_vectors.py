import math

import numpy as np
import pytest

from qstacker import encode
from qstacker.errors import NonFiniteInput, ParseError, TruncatedFile
from qstacker.matio import (
    read_matrix,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from qstacker.vectors import _norm, prepare_all


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
        norms = _norm(m, axis=1)
        assert norms[0] == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
        assert norms[1] == 0.0
        assert np.array_equal(_norm(m.T, axis=0), norms)
        assert encode(m[0]).source_norm == norms[0]
        assert np.allclose(encode(m[0]).amplitudes, [0.6, 0.8], atol=1e-15)

    def test_ordinary_norms_are_numpy_bits(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-150, 150, size=(6, 1))
        assert np.array_equal(_norm(m, axis=1), np.linalg.norm(m, axis=1))
        assert np.array_equal(_norm(m.T, axis=0), np.linalg.norm(m.T, axis=0))
        for row in m:
            assert encode(row).source_norm == float(np.linalg.norm(row))

    def test_identity_rows(self):
        assert np.array_equal(_norm(np.eye(2), axis=1), [1, 1])

    def test_zero_row(self):
        assert np.array_equal(_norm(np.array([[3.0, 4.0], [0.0, 0.0]]), axis=1), [5, 0])

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(8, 8))
        expected_rows = [math.sqrt(sum(x * x for x in m[i, :])) for i in range(8)]
        expected_cols = [math.sqrt(sum(x * x for x in m[:, j])) for j in range(8)]
        assert np.allclose(_norm(m, axis=1), expected_rows, atol=1e-12)
        assert np.allclose(_norm(m, axis=0), expected_cols, atol=1e-12)


class TestPrepareAll:
    def test_states_are_encode_of_each_row_and_column(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
        a[1] = a[0]  # duplicate rows
        a[2] = 0.0
        b[:, 3] = 0.0
        row_states, col_states = prepare_all(a, b)
        assert (len(row_states), len(col_states)) == (4, 5)
        for states, vectors in ((row_states, a), (col_states, b.T)):
            for state, v in zip(states, vectors):
                fresh = encode(v)
                assert np.array_equal(state.amplitudes, fresh.amplitudes)
                assert state.source_norm == fresh.source_norm
        assert np.array_equal(row_states[0].amplitudes, row_states[1].amplitudes)
        assert row_states[2].is_zero and col_states[3].is_zero
        assert np.array_equal(row_states[2].amplitudes, np.zeros(3))


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

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedFile):
            read_matrix_bin(path)

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
