import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import triple_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from qstacker import (
    MatMulConfig,
    StackingPattern,
    analytic_overlap,
    derive_seed,
    encode,
    error_budget,
    estimate,
    job_rng,
    matmul,
)
from qstacker.cli import summary_dict, write_result_csv, write_summary_json
from qstacker.errors import InvalidArgument, NonFiniteInput, ShapeMismatch
from qstacker.matio import read_matrix_csv, write_matrix_csv
from qstacker.stacking import qubits_per_test


class TestExactMode:
    def test_identity(self):
        r = matmul(np.eye(2), np.eye(2), MatMulConfig(exact=True))
        assert np.allclose(r.c, np.eye(2), atol=1e-10)
        assert r.job_count == 0

    def test_three_four_dot(self):
        a = np.array([[3.0, 4.0]])
        b = np.array([[4.0], [3.0]])
        r = matmul(a, b, MatMulConfig(exact=True))
        assert r.c[0, 0] == pytest.approx(24.0, abs=1e-12)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            rows, inner, cols = rng.integers(1, 12, size=3)
            a = rng.normal(size=(rows, inner))
            b = rng.normal(size=(inner, cols))
            r = matmul(a, b, MatMulConfig(exact=True))
            assert np.abs(r.c - triple_loop(a, b)).max() <= 1e-10

    def test_all_zero_a(self):
        r = matmul(np.zeros((3, 4)), np.ones((4, 2)), MatMulConfig(exact=True))
        for arr in (r.c, r.z_hat, r.true_overlap):
            assert not np.isnan(arr).any()
            assert np.array_equal(arr, np.zeros((3, 2)))

    def test_zero_rows_and_columns_are_exact_zeros(self):
        rng = np.random.default_rng(51)
        a = rng.normal(size=(5, 6))
        b = rng.normal(size=(6, 4))
        a[[1, 3]] = 0.0
        a[4] = 1e-170  # nonzero, but its squared norm underflows to zero
        b[:, 2] = 0.0
        r = matmul(a, b, MatMulConfig(exact=True))
        assert not np.isnan(r.c).any()
        dead = np.zeros((5, 4), dtype=bool)
        dead[[1, 3], :] = True
        dead[:, 2] = True
        assert np.array_equal(r.c[dead], np.zeros(dead.sum()))
        assert np.array_equal(r.z_hat[dead], np.zeros(dead.sum()))
        assert np.abs(r.c - a @ b).max() <= 1e-10
        tiny = r.c[4, [0, 1, 3]]
        assert np.all(tiny != 0.0)
        assert np.allclose(tiny, (a @ b)[4, [0, 1, 3]], rtol=1e-10, atol=0.0)
        assert (r.cache_hits, r.cache_misses) == (0, 5 + 4)

    @pytest.mark.parametrize("shape", [(1, 7, 5), (5, 7, 1), (1, 1, 1), (6, 1, 3)])
    def test_edge_shapes(self, shape):
        rows, inner, cols = shape
        rng = np.random.default_rng(52)
        a = rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols))
        r = matmul(a, b, MatMulConfig(exact=True))
        assert r.c.shape == r.z_hat.shape == r.true_overlap.shape == (rows, cols)
        assert np.abs(r.c - triple_loop(a, b)).max() <= 1e-10

    def test_planted_unit_overlaps(self):
        rng = np.random.default_rng(53)
        v = rng.normal(size=9)
        a = np.stack([v, 2.5 * v, rng.normal(size=9)])
        b = np.stack([v, -3.0 * v], axis=1)
        r = matmul(a, b, MatMulConfig(exact=True))
        assert np.abs(r.z_hat[:2]).max() <= 1.0
        assert np.allclose(r.z_hat[:2], [[1.0, -1.0], [1.0, -1.0]], atol=1e-15)
        assert np.abs(r.c - a @ b).max() <= 1e-10 * max(1.0, r.norm_products.max())

    def test_scale_equivariance(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        c = 3.7
        base = matmul(a, b, MatMulConfig(exact=True)).c
        scaled = matmul(c * a, b, MatMulConfig(exact=True)).c
        assert np.allclose(scaled, c * base, atol=1e-9)


class TestSampledMode:
    def test_elementwise_four_sigma_bound(self):
        rng = np.random.default_rng(43)
        shots = 65536
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        r = matmul(a, b, MatMulConfig(shots=shots, seed=7))
        classical = a @ b
        bound = 4.0 * r.norm_products / np.sqrt(shots)
        assert np.all(np.abs(r.c - classical) <= bound + 1e-12)

    def test_error_shrinks_with_shots(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        classical = a @ b
        errs = []
        for shots in (2**10, 2**14, 2**18):
            r = matmul(a, b, MatMulConfig(shots=shots, seed=9))
            errs.append(np.abs(r.c - classical).max())
        assert errs[2] < errs[0]

    def test_error_non_increasing_across_doublings(self):
        # statistical monotonicity: max error may fluctuate batch to batch,
        # but at least 7 of 9 shot doublings must not increase it
        from qstacker import derive_seed

        rng = np.random.default_rng(derive_seed(77, 1))
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        classical = a @ b
        errs = []
        for k in range(10):
            r = matmul(a, b, MatMulConfig(shots=2 ** (10 + k), seed=derive_seed(77, 2)))
            errs.append(float(np.abs(r.c - classical).max()))
        good = sum(1 for x, y in zip(errs, errs[1:]) if y <= x)
        assert good >= 7, f"only {good}/9 doublings non-increasing: {errs}"

    def test_pattern_independence(self):
        rng = np.random.default_rng(45)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        products = [
            matmul(a, b, MatMulConfig(shots=2048, seed=11, pattern=p)).c
            for p in StackingPattern
        ]
        for c in products[1:]:
            assert np.array_equal(c, products[0])

    def test_determinism(self):
        rng = np.random.default_rng(46)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        cfg = MatMulConfig(shots=4096, seed=13)
        assert np.array_equal(matmul(a, b, cfg).c, matmul(a, b, cfg).c)


class TestLayoutInvarianceProperty:
    # criterion 5 on a few fixed products, widened: edge shapes, zero rows and
    # columns, planted overlaps of +-1, every layout and any budget from one
    # test up to unbounded
    @settings(deadline=None, max_examples=150)
    @given(
        rows=st.integers(1, 6),
        inner=st.integers(1, 9),
        cols=st.integers(1, 6),
        shots=st.integers(1, 1 << 20),
        seed=st.integers(0, (1 << 64) - 1),
        data=st.data(),
    )
    def test_every_layout_and_budget_gives_the_same_product(self, rows, inner, cols, shots, seed, data):
        rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1), label="values"))
        a = rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols))
        planted = data.draw(st.dictionaries(st.integers(0, cols - 1),
                                            st.tuples(st.integers(0, rows - 1), st.sampled_from([1.0, -1.0]))),
                            label="planted column: (row, sign)")
        for j, (i, sign) in planted.items():
            b[:, j] = sign * a[i]
        zero_rows = data.draw(st.lists(st.integers(0, rows - 1), unique=True), label="zero rows")
        zero_cols = data.draw(st.lists(st.integers(0, cols - 1), unique=True), label="zero cols")
        a[zero_rows] = 0.0
        b[:, zero_cols] = 0.0
        q = qubits_per_test(inner)
        budgets = data.draw(st.lists(st.none() | st.integers(q, 10**4), min_size=1, max_size=3),
                            label="budgets")
        first = matmul(a, b, MatMulConfig(shots=shots, seed=seed))
        for pattern in StackingPattern:
            for budget in budgets:
                r = matmul(a, b, MatMulConfig(shots=shots, seed=seed, pattern=pattern,
                                              qubit_budget=budget))
                assert r.c.tobytes() == first.c.tobytes()
                assert r.z_hat.tobytes() == first.z_hat.tobytes()
                assert r.job_count == first.job_count
        assert first.job_count == (rows - len(zero_rows)) * (cols - len(zero_cols))
        for arr in (first.c, first.z_hat):
            assert np.array_equal(arr[zero_rows], np.zeros((len(zero_rows), cols)))
            assert np.array_equal(arr[:, zero_cols], np.zeros((rows, len(zero_cols))))
        for j, (i, sign) in planted.items():
            if i not in zero_rows and j not in zero_cols:
                # every shot lands on one ancilla outcome, so the estimate is exact
                assert first.z_hat[i, j] == sign
                assert first.c[i, j] == sign * first.norm_products[i, j]
        exact = matmul(a, b, MatMulConfig(exact=True))
        assert exact.c.tobytes() == (exact.norm_products * exact.z_hat).tobytes()


class TestLeadingSubBlockProperty:
    # a leading block of A and B gives that block of the product bit for bit:
    # an element's seed, norms and states depend on (i, j) and on its own row
    # and column only, whatever the width of the operands around it
    @settings(deadline=None, max_examples=100)
    @given(
        rows=st.integers(1, 6),
        inner=st.integers(1, 40),
        cols=st.integers(2, 6),
        shots=st.integers(1, 1 << 20),
        seed=st.integers(0, (1 << 64) - 1),
        data=st.data(),
    )
    def test_a_leading_block_is_that_block_of_the_product(self, rows, inner, cols, shots, seed, data):
        rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1), label="values"))
        a = rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols))
        r = data.draw(st.integers(1, rows), label="block rows")
        c = data.draw(st.just(1) | st.integers(1, cols), label="block cols")
        cfg = MatMulConfig(shots=shots, seed=seed)
        full, block = matmul(a, b, cfg), matmul(a[:r], b[:, :c], cfg)
        for name in ("c", "z_hat", "true_overlap", "norm_products"):
            assert getattr(block, name).tobytes() == getattr(full, name)[:r, :c].tobytes(), name
        # in exact mode the BLAS product may depend on the shape; the norms may not
        cfg = MatMulConfig(exact=True)
        full, block = matmul(a, b, cfg), matmul(a[:r], b[:, :c], cfg)
        assert block.norm_products.tobytes() == full.norm_products[:r, :c].tobytes()


class TestPerElementReference:
    # the engine against its own definition, element by element: seed from
    # (seed, i, j), one Binomial(S, (1 + mu)/2) count, the scalar estimate and
    # C_ij = ||A_i|| ||B_j|| z_hat_ij, at shot counts up to int64's limit
    @settings(deadline=None, max_examples=150)
    @given(
        rows=st.integers(1, 5),
        inner=st.integers(1, 8),
        cols=st.integers(1, 5),
        shots=st.sampled_from([1, 2, 1024, 1 << 20, (1 << 53) + 1, (1 << 63) - 1]),
        seed=st.integers(0, (1 << 64) - 1),
        data=st.data(),
    )
    def test_sampled_product_equals_the_per_element_reference(self, rows, inner, cols, shots, seed, data):
        rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1), label="values"))
        a = rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols))
        a[data.draw(st.lists(st.integers(0, rows - 1), unique=True), label="zero rows")] = 0.0
        b[:, data.draw(st.lists(st.integers(0, cols - 1), unique=True), label="zero cols")] = 0.0
        want_z, want_mu, want_c = np.zeros((3, rows, cols))
        row_states, col_states = [encode(v) for v in a], [encode(v) for v in b.T]
        for i, psi in enumerate(row_states):
            for j, phi in enumerate(col_states):
                if psi.is_zero or phi.is_zero:
                    continue
                want_mu[i, j] = analytic_overlap(psi, phi)
                count0 = int(job_rng(derive_seed(seed, i, j)).binomial(shots, (1.0 + want_mu[i, j]) / 2.0))
                want_z[i, j] = estimate(count0, shots)
                want_c[i, j] = psi.source_norm * phi.source_norm * want_z[i, j]
        r = matmul(a, b, MatMulConfig(shots=shots, seed=seed))
        assert r.z_hat.tobytes() == want_z.tobytes()
        assert r.true_overlap.tobytes() == want_mu.tobytes()
        assert r.c.tobytes() == want_c.tobytes()


class TestGoldenStream:
    # a 5x7 . 7x6 product with a zero row (A[3]), a zero column (B[:, 4]) and
    # planted overlaps +1 at (0, 1) and -1 at (2, 2); the hashes pin the
    # sampled stream, so any silent change of seeds or draws fails here
    A = np.array([[2., -1., 0., 3., 1., -2., 1.],
                  [1., 1., 1., 1., 1., 1., 1.],
                  [0., 2., -3., 1., 0., 1., -1.],
                  [0., 0., 0., 0., 0., 0., 0.],
                  [-1., 0., 2., 2., -3., 1., 4.]])
    B = np.array([[1., 2., 0., 0., 0., -1.],
                  [0., -1., -4., 3., 0., 2.],
                  [2., 0., 6., -1., 0., 1.],
                  [1., 3., -2., 0., 0., 0.],
                  [-1., 1., 0., 2., 0., 1.],
                  [3., -2., -2., 1., 0., -3.],
                  [0., 1., 2., -2., 0., 1.]])

    # the exact overlaps do not depend on S
    TRUE_OVERLAP_SHA = "d5b31fedb481b5cc5382feceef35b7f66df70e009cf92c447d46261052fa732d"

    @pytest.mark.parametrize("shots, c_sha, z_sha", [
        (1, "b401dda12bbfa37d32c439509cb46d8dde3f09f97c308c544b9515b52bf45ac8",
         "4dca6d3dfd6b21dacb974f3dc727348f2b080291f3624acd4a1441f2888caf04"),
        (1024, "98ae610299d818ad5ef95e59993c6007bb22bdbac481a7d65f8f1b0f8e5aa8a0",
         "c90fba0a124197a47f58da4524945bc5a02d5fc72998a70e830c300961751ccd"),
        (1 << 20, "11311a123c97f34c1da4ee5ead5a07e16298dc457da3c6f0c57c24106481c90f",
         "7d82bf8e1b23f192bf077d1064a5fa7e00186c1753950e653570218a5e918c84"),
    ])
    def test_sampled_stream_is_pinned(self, shots, c_sha, z_sha):
        assert np.array_equal(self.B[:, 1], self.A[0]) and np.array_equal(self.B[:, 2], -2 * self.A[2])
        r = matmul(self.A, self.B, MatMulConfig(shots=shots, seed=(1 << 63) + 5))
        assert (r.z_hat[0, 1], r.z_hat[2, 2]) == (1.0, -1.0)
        assert not r.c[3].any() and not r.c[:, 4].any()
        assert hashlib.sha256(r.c.tobytes()).hexdigest() == c_sha
        assert hashlib.sha256(r.z_hat.tobytes()).hexdigest() == z_sha
        assert hashlib.sha256(r.true_overlap.tobytes()).hexdigest() == self.TRUE_OVERLAP_SHA


def small_products():
    """300 small products, as (a, b, cfg): shapes 1-12 with m, k or n of 1,
    Fortran-ordered and strided operands, zero rows and columns, magnitudes
    1e+-200, planted overlaps +-1, both modes and S from 1 to 2^20."""
    rng = np.random.default_rng(20261019)
    shot_levels = (1, 2, 1024, 16384, 1 << 20)
    for case in range(300):
        m, k, n = (int(v) for v in rng.integers(1, 13, size=3))
        if case % 10 < 3:  # m, k or n is 1
            m, k, n = [1 if axis == case % 10 else v for axis, v in enumerate((m, k, n))]
        a = rng.normal(size=(m, 2 * k))[:, ::2] if case % 7 == 0 else rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        if n > 1 and case % 3 == 0:
            b[:, rng.integers(n)] = rng.choice([1.0, -1.0]) * a[rng.integers(m)]
        a[rng.random(m) < 0.15] = 0.0
        b[:, rng.random(n) < 0.15] = 0.0
        a *= 10.0 ** rng.choice([0, 200, -200])
        b *= 10.0 ** rng.choice([0, 200, -200])
        if case % 4 in (1, 3):
            a = np.asfortranarray(a)
        if case % 4 in (2, 3):
            b = np.asfortranarray(b)
        cfg = MatMulConfig(shots=shot_levels[case % 5], seed=int(rng.integers(1 << 64, dtype=np.uint64)),
                           exact=case % 3 == 2)
        yield a, b, cfg


# recorded before matmul's per-call work (one normalization pass over A and
# B transposed, the array seed grid, broadcasts and map-driven job loops)
SMALL_PRODUCTS_SHA = "9fae1caad849277501dd7bb3ca97a678a9f8d0609065ebace3cc40afa4e8db64"


def test_small_products_are_pinned():
    digest = hashlib.sha256()
    for a, b, cfg in small_products():
        r = matmul(a, b, cfg)
        for arr in (r.c, r.z_hat, r.true_overlap, *r.norm_parts):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == SMALL_PRODUCTS_SHA


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_give_finite_products(self, scale, exact):
        # the row's sum of squares overflows (1e200) or underflows (1e-200);
        # overlap +1 puts every shot on ancilla 0, so sampling is exact too
        a = np.full((1, 2), scale)
        r = matmul(a, np.ones((2, 1)), MatMulConfig(shots=1024, seed=31, exact=exact))
        assert r.z_hat[0, 0] == pytest.approx(1.0, rel=0.0, abs=1e-15)
        assert r.c[0, 0] == pytest.approx(2.0 * scale, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("exact", [True, False])
    def test_norms_past_the_float_range_give_the_finite_product(self, exact):
        # ||A_0|| is past float64's largest value and ||B_0|| is near its
        # smallest normal, yet a @ b is 3e8: the norms' exponents meet last
        a, b = np.full((1, 2), 1.5e308), np.full((2, 1), 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = matmul(a, b, MatMulConfig(shots=1024, seed=31, exact=exact))
        assert r.c[0, 0] == pytest.approx(3e8, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_norm_product_past_the_float_range_reads_inf_without_a_warning(self, exact, tmp_path):
        # ||A_0|| * ||B_0|| is about 2e308 while c stays finite; the suite
        # raises warnings as errors, so an overflow warning fails this test.
        # The sampled stderr applies the norms' exponents last, as c does, so
        # it is finite: about 2e308 * sqrt((1 - z^2)/1024), near 6.2e306
        r = matmul(np.full((1, 2), 1e308), np.array([[1.0], [-1.0]]),
                   MatMulConfig(shots=1024, seed=31, exact=exact))
        assert r.norm_products[0, 0] == math.inf
        assert np.isfinite(r.c[0, 0])
        write_result_csv(r, tmp_path / "matmul.csv")
        stderr = float((tmp_path / "matmul.csv").read_text().splitlines()[1].rsplit(",", 1)[1])
        if exact:
            assert stderr == 0.0
        else:
            z = float(r.z_hat[0, 0])
            expected = 1e308 * (2.0 * math.sqrt((1.0 - z * z) / 1024))
            assert stderr == pytest.approx(expected, rel=1e-14)

    def test_a_vector_whose_norm_overflows_encodes_to_finite_amplitudes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = encode([1.5e308, 1.5e308])
        assert np.all(np.isfinite(s.amplitudes))
        assert np.allclose(s.amplitudes, [math.sqrt(0.5)] * 2, rtol=0.0, atol=1e-15)


class TestZeroNormShortCircuit:
    def test_zero_row_dispatches_no_jobs(self):
        rng = np.random.default_rng(47)
        a = rng.normal(size=(4, 4))
        a[2, :] = 0.0
        b = rng.normal(size=(4, 4))
        r = matmul(a, b, MatMulConfig(shots=1024, seed=15))
        assert np.array_equal(r.c[2, :], np.zeros(4))
        assert r.job_count == 16 - 4
        assert np.array_equal(r.z_hat[2], np.zeros(4))
        assert np.array_equal(r.true_overlap[2], np.zeros(4))

    def test_zero_vector_matvec(self):
        a = np.eye(3)
        out = matmul(a, np.zeros((3, 1)), MatMulConfig(shots=64, seed=1)).c[:, 0]
        assert np.array_equal(out, np.zeros(3))


class TestPrepAccounting:
    def test_encode_calls_bounded_by_2n(self):
        rng = np.random.default_rng(48)
        n = 6
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        r = matmul(a, b, MatMulConfig(shots=256, seed=17))
        assert r.cache_misses == 2 * n
        assert r.job_count == n * n

    def test_zero_rows_still_encoded_once(self):
        a = np.zeros((3, 3))
        b = np.eye(3)
        r = matmul(a, b, MatMulConfig(shots=64, seed=19))
        assert r.cache_misses == 6
        assert r.job_count == 0


class TestMatvec:
    def test_identity_exact(self):
        out = matmul(np.eye(3), np.array([[1.0], [2.0], [3.0]]), MatMulConfig(exact=True)).c[:, 0]
        assert np.allclose(out, [1, 2, 3], atol=1e-12)

    def test_sampled_within_four_sigma(self):
        rng = np.random.default_rng(49)
        a = rng.normal(size=(16, 16))
        x = rng.normal(size=16)
        shots = 16384
        out = matmul(a, x[:, None], MatMulConfig(shots=shots, seed=21)).c[:, 0]
        classical = a @ x
        bound = 4.0 * np.linalg.norm(a, axis=1) * np.linalg.norm(x) / np.sqrt(shots)
        assert np.all(np.abs(out - classical) <= bound + 1e-12)


class TestErrorBudget:
    def test_ceiling(self):
        assert error_budget(1.0, 10000) <= 0.01 + 1e-15

    def test_zero_norms(self):
        assert error_budget(0.0, 100) == 0.0

    def test_known_value(self):
        # norms 5*5, mu = 0.96, S = 16384: 25*sqrt(0.0784/16384) = 7/128
        assert error_budget(25.0, 16384, mu=0.96) == pytest.approx(0.0546875, abs=1e-12)

    def test_mu_tightens_budget(self):
        assert error_budget(2.0, 100, mu=0.9) < error_budget(2.0, 100)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(np.eye(3), np.eye(4), MatMulConfig(exact=True))

    def test_nonfinite(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            bad = np.array([[1.0, value], [0.0, 1.0]])
            with pytest.raises(NonFiniteInput):
                matmul(bad, np.eye(2), MatMulConfig(exact=True))
            with pytest.raises(NonFiniteInput):
                matmul(np.eye(2), bad, MatMulConfig(shots=64))

    @pytest.mark.parametrize(
        "kwargs",
        [{"shots": 2.5}, {"shots": "7"}, {"shots": 0}, {"seed": 1.5}, {"seed": "7"}],
    )
    def test_non_integer_or_non_positive_config_is_refused(self, kwargs):
        with pytest.raises(InvalidArgument):
            MatMulConfig(**kwargs)

    def test_numpy_integer_shots_match_int(self):
        rng = np.random.default_rng(43)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        cfg = MatMulConfig(shots=np.int64(1024), seed=np.uint64(9))
        assert type(cfg.shots) is int and type(cfg.seed) is int
        want = matmul(a, b, MatMulConfig(shots=1024, seed=9)).c
        assert np.array_equal(matmul(a, b, cfg).c, want)


class TestSerialization:
    def test_csv_and_summary(self, tmp_path):
        rng = np.random.default_rng(50)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        r = matmul(a, b, MatMulConfig(shots=4096, seed=23))
        csv_path = tmp_path / "result.csv"
        write_result_csv(r, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "i,j,z_hat,c_ij,stderr"
        assert len(lines) == 1 + 9
        i, j, z, c, se = lines[1].split(",")
        assert (int(i), int(j)) == (0, 0)
        assert float(c) == pytest.approx(r.c[0, 0])
        json_path = tmp_path / "summary.json"
        write_summary_json(r, json_path, classical=a @ b)
        doc = json.loads(json_path.read_text())
        assert doc["job_count"] == 9
        assert doc["max_abs_error"] >= 0.0

    @pytest.mark.parametrize("shots", [1, 1024, 1 << 20])
    def test_sampled_csv_matches_per_element_reference(self, tmp_path, shots):
        rng = np.random.default_rng(54)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        a[1] = 0.0
        b[:, 2] = 0.0
        r = matmul(a, b, MatMulConfig(shots=shots, seed=29))
        expected = ["i,j,z_hat,c_ij,stderr"]
        for i in range(4):
            for j in range(3):
                z = float(r.z_hat[i, j])
                se = float(error_budget(float(r.norm_products[i, j]), shots, mu=z))
                expected.append(f"{i},{j},{z!r},{float(r.c[i, j])!r},{se!r}")
        write_result_csv(r, tmp_path / "matmul.csv")
        assert (tmp_path / "matmul.csv").read_text() == "\n".join(expected) + "\n"

    @staticmethod
    def _planted_result(exact):
        """A 4x5 product with a zero row and a zero column, whose c and z_hat
        also hold -0.0, 5e-324, 1e16 and 1e-300."""
        rng = np.random.default_rng(55)
        a, b = rng.normal(size=(4, 9)), rng.normal(size=(9, 5))
        a[2] = 0.0
        b[:, 1] = 0.0
        r = matmul(a, b, MatMulConfig(shots=2048, seed=41, exact=exact))
        c, z = r.c.copy(), r.z_hat.copy()
        c[0, 0], c[0, 2], c[1, 3], c[3, 4] = -0.0, 5e-324, 1e16, 1e-300
        z[0, 0], z[1, 3] = -0.0, 5e-324
        return dataclasses.replace(r, c=c, z_hat=z)

    @pytest.mark.parametrize("exact", [True, False])
    def test_csv_matches_per_element_reference(self, tmp_path, exact):
        r = self._planted_result(exact)
        expected = ["i,j,z_hat,c_ij,stderr"]
        for i in range(4):
            for j in range(5):
                z = float(r.z_hat[i, j])
                se = 0.0 if exact else float(error_budget(float(r.norm_products[i, j]), r.shots, mu=z))
                expected.append(f"{i},{j},{z!r},{float(r.c[i, j])!r},{se!r}")
        write_result_csv(r, tmp_path / "matmul.csv", tmp_path / "product.csv")
        assert (tmp_path / "matmul.csv").read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("exact", [True, False])
    def test_product_csv_is_write_matrix_csv_of_c(self, tmp_path, exact):
        r = self._planted_result(exact)
        write_result_csv(r, tmp_path / "matmul.csv", tmp_path / "product.csv")
        write_matrix_csv(tmp_path / "reference.csv", r.c)
        assert (tmp_path / "product.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        back = read_matrix_csv(tmp_path / "product.csv")
        assert back.tobytes() == r.c.tobytes()  # bit for bit, -0.0 and 5e-324 included
        assert "-0.0," in (tmp_path / "product.csv").read_text()
        write_result_csv(r, tmp_path / "alone.csv")
        assert (tmp_path / "alone.csv").read_bytes() == (tmp_path / "matmul.csv").read_bytes()

    @settings(deadline=None, max_examples=100)
    @given(
        rows=st.integers(1, 9),
        inner=st.integers(1, 9),
        cols=st.integers(1, 9),
        exact=st.booleans(),
        shots=st.sampled_from([1, 1024, 1 << 20]),
        data=st.data(),
    )
    def test_every_shape_writes_the_per_element_reference(self, tmp_path_factory, rows, inner, cols,
                                                          exact, shots, data):
        # the writer's row template against one f-string per element, with
        # 1-row and 1-column products and the awkward reprs planted anywhere
        rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1), label="values"))
        r = matmul(rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols)),
                   MatMulConfig(shots=shots, seed=43, exact=exact))
        c, z = r.c.copy(), r.z_hat.copy()
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for (i, j), v in data.draw(st.dictionaries(
                cells, st.sampled_from([-0.0, 5e-324, 1e16, 1e-300, math.inf, -math.inf])), label="c").items():
            c[i, j] = v
        for (i, j), v in data.draw(st.dictionaries(cells, st.sampled_from([-0.0, 5e-324])), label="z").items():
            z[i, j] = v
        r = dataclasses.replace(r, c=c, z_hat=z)
        expected = ["i,j,z_hat,c_ij,stderr"]
        for i in range(rows):
            for j in range(cols):
                zv = float(r.z_hat[i, j])
                se = 0.0 if exact else float(error_budget(float(r.norm_products[i, j]), shots, mu=zv))
                expected.append(f"{i},{j},{zv!r},{float(r.c[i, j])!r},{se!r}")
        out = tmp_path_factory.mktemp("serial")
        write_result_csv(r, out / "matmul.csv", out / "product.csv")
        write_result_csv(r, out / "alone.csv")
        assert (out / "matmul.csv").read_text() == "\n".join(expected) + "\n"
        assert (out / "alone.csv").read_bytes() == (out / "matmul.csv").read_bytes()
        product = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in r.c)
        assert (out / "product.csv").read_text() == product
        if np.isfinite(r.c).all():  # write_matrix_csv refuses inf
            write_matrix_csv(out / "reference.csv", r.c)
            assert (out / "product.csv").read_bytes() == (out / "reference.csv").read_bytes()

    @pytest.mark.parametrize("exact", [True, False])
    def test_stderr_is_zero_when_exact_and_the_budget_when_sampled(self, tmp_path, exact):
        # row 2 has norm 1.4e308: c[2, 3] is inf, as [[1e308, 1e308]] @
        # [[1e308], [1e308]] is, and ||A_2|| * ||B_2|| is past float64's range
        # while c[2, 2] and its sampled stderr are finite
        rng = np.random.default_rng(57)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 4))
        a[2], b[:, 2], b[:, 3] = 1e308, (1.0, -1.0), 1e308
        r = matmul(a, b, MatMulConfig(shots=1024, seed=47, exact=exact))
        assert r.c[2, 3] == math.inf and r.norm_products[2, 2] == math.inf
        write_result_csv(r, tmp_path / "matmul.csv")
        lines = (tmp_path / "matmul.csv").read_text().splitlines()[1:]
        assert len(lines) == 12 and lines[11].startswith("2,3,") and lines[11].split(",")[3] == "inf"
        mant, exp = r.norm_parts
        for line, (i, j) in zip(lines, np.ndindex(3, 4)):
            z = float(r.z_hat[i, j])
            se = 0.0 if exact else float(np.ldexp(error_budget(float(mant[i, j]), 1024, mu=z), int(exp[i, j])))
            assert line.rsplit(",", 1)[1] == repr(se)
        assert exact or 1e306 < float(lines[10].rsplit(",", 1)[1]) < 1e307

    @pytest.mark.parametrize("exact", [True, False])
    def test_the_writer_streams_row_by_row(self, tmp_path, exact):
        # both files of a 128x128 product, 1.7 MB and more if either is
        # built whole, or as one list of cells, before it is written
        rng = np.random.default_rng(56)
        r = matmul(rng.normal(size=(128, 24)), rng.normal(size=(24, 128)),
                   MatMulConfig(shots=1024, seed=5, exact=exact))
        tracemalloc.start()
        try:
            write_result_csv(r, tmp_path / "matmul.csv", tmp_path / "product.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_summary_dict_exact(self):
        r = matmul(np.eye(2), np.eye(2), MatMulConfig(exact=True))
        doc = summary_dict(r, classical=np.eye(2))
        assert doc["exact"] is True
        assert doc["max_abs_error"] <= 1e-12
