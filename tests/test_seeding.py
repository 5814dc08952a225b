import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spec import spec_count

from qstacker import MatMulConfig, derive_seed, encode, job_rng, matmul, sample_hadamard
from qstacker.errors import InvalidArgument
from qstacker.seeding import _slot, _splitmix64_into, random_signs, rekeyed_rng, splitmix64

seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)
shot_counts = st.sampled_from([1, 2, 1024, 1 << 20]) | st.integers(min_value=1, max_value=1 << 40)
probabilities = st.sampled_from([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0]) | st.floats(
    min_value=0.0, max_value=1.0
)
# overlaps at and next to +/-1 give p0 at and next to 0 and 1
overlaps = st.sampled_from([-1.0, -1.0 + 2e-9, 0.0, 1.0 - 2e-9, 1.0]) | st.floats(
    min_value=-1.0, max_value=1.0
)


def _pair(mu):
    """Two 2-dimensional states whose overlap is mu up to the encoding's rounding."""
    return encode([1.0, 0.0]), encode([mu, np.sqrt(1.0 - mu * mu)])


def _in_threads(fn, items, workers=4):
    """[fn(x) for x in items] from `workers` threads (more than the cores),
    thread p taking items p, p + workers, ..., switching every 1 us."""
    out = [None] * len(items)

    def run(part):
        for k in range(part, len(items), workers):
            out[k] = fn(items[k])

    threads = [threading.Thread(target=run, args=(p,)) for p in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return out


class TestSampleHadamardDraw:
    """sample_hadamard draws each job's binomial on the thread's re-keyed
    generator, and draws what spec_count draws on a fresh job_rng."""

    @settings(deadline=None, max_examples=300)
    @given(seed=seeds, shots=shot_counts, mu=overlaps)
    def test_equals_a_fresh_job_rng_draw(self, seed, shots, mu):
        psi, phi = _pair(mu)
        assert sample_hadamard(psi, phi, shots, seed) == spec_count(psi, phi, shots, seed)

    @settings(deadline=None)
    @given(st.lists(st.tuples(seeds, shot_counts, overlaps), min_size=2, max_size=30))
    def test_interleaved_parameters_match_fresh_draws(self, calls):
        # changing (S, p0) between calls exercises the Generator's binomial setup cache
        jobs = [(*_pair(mu), shots, seed) for seed, shots, mu in calls]
        assert [sample_hadamard(*job) for job in jobs] == [spec_count(*job) for job in jobs]

    @pytest.mark.parametrize("mu, shots", [(m, s) for m in (-1.0, 1.0) for s in (1, 1 << 20)])
    def test_certain_outcomes(self, mu, shots):
        psi, phi = _pair(mu)
        count0 = sample_hadamard(psi, phi, shots, 11)
        assert count0 == spec_count(psi, phi, shots, 11) == (shots if mu > 0 else 0)

    def test_threads_on_disjoint_jobs_match_serial(self):
        rng = np.random.default_rng(21)
        states = [encode(rng.normal(size=8)) for _ in range(12)]
        jobs = [
            (states[k % 12], states[(5 * k + 1) % 12], (1, 1024, 1 << 20)[k % 3], derive_seed(4, k))
            for k in range(600)
        ]
        serial = [sample_hadamard(*job) for job in jobs]
        assert serial == [spec_count(*job) for job in jobs]
        assert _in_threads(lambda job: sample_hadamard(*job), jobs) == serial


def _draws(rng):
    """A mix of word and half-word draws, with NumPy's binomial setup cache in between."""
    return (rng.bit_generator.random_raw(3).tolist(), rng.binomial(1024, 0.3, size=5).tolist(),
            rng.integers(0, 7, size=3).tolist(), rng.normal(size=2).tolist(), int(rng.binomial(9, 0.5)))


def _leaves(state, path=()):
    """(path of field names, value) for each leaf of a nested state dict."""
    if isinstance(state, dict):
        for name, value in state.items():
            yield from _leaves(value, (*path, name))
    else:
        yield path, state


class TestRekeyedRng:
    @settings(deadline=None)
    @given(st.lists(seeds, min_size=1, max_size=20))
    def test_interleaved_seeds_match_fresh_generators(self, keys):
        assert [_draws(rekeyed_rng(seed)) for seed in keys] == [_draws(job_rng(seed)) for seed in keys]

    def test_each_call_resets_the_threads_one_generator(self):
        a = rekeyed_rng(5)
        first = a.bit_generator.random_raw(4).tolist()
        assert rekeyed_rng(7) is a
        assert rekeyed_rng(5) is a
        assert a.bit_generator.random_raw(4).tolist() == first

    def test_reset_state_is_a_fresh_philox_state_in_python_ints(self):
        # a state field numpy adds must show here, not stay un-reset
        rekeyed_rng(0)
        kept, fresh = dict(_leaves(_slot.rng[2])), dict(_leaves(np.random.Philox(key=0).state))
        assert list(kept) == list(fresh)
        for path, value in kept.items():
            assert np.array_equal(np.asarray(value), np.asarray(fresh[path])), path
            if isinstance(fresh[path], np.ndarray):
                assert type(value) is list and all(type(v) is int for v in value), path

    def test_threads_match_serial(self):
        keys = [derive_seed(6, k) for k in range(400)]
        serial = [_draws(job_rng(seed)) for seed in keys]
        assert _in_threads(lambda seed: _draws(rekeyed_rng(seed)), keys) == serial


shapes = st.lists(st.integers(0, 40), min_size=1, max_size=3).map(tuple)


class TestRandomSigns:
    @settings(deadline=None, max_examples=300)
    @given(seed=seeds, shape=shapes, shots=shot_counts, p0=probabilities)
    def test_equals_integers_and_the_binomials_that_follow(self, seed, shape, shots, p0):
        raw, ints = job_rng(seed), job_rng(seed)
        signs = random_signs(raw, shape)
        want = ints.integers(0, 2, size=shape) * 2 - 1
        assert signs.dtype == np.float64 and signs.shape == want.shape
        assert np.array_equal(signs, want)
        # an odd size leaves integers a buffered half that whole-word draws never read
        assert raw.binomial(shots, p0, size=7).tolist() == ints.binomial(shots, p0, size=7).tolist()

    @pytest.mark.parametrize("shape", [(500, 64), (11, 7), (1, 1), (3,), (10_000, 32)])
    def test_rekeyed_generators_give_the_same_signs(self, shape):
        for k in range(20):
            seed = derive_seed(8, k)
            want = job_rng(seed).integers(0, 2, size=shape) * 2 - 1
            assert np.array_equal(random_signs(rekeyed_rng(seed), shape), want)

    @pytest.mark.parametrize("shape", [(500, 64), (11, 7), (3, 8), (1, 1), (3,)])
    def test_into_a_buffer_equals_the_fresh_array(self, shape):
        out = np.full(shape, np.nan)
        for k in range(20):  # one buffer for every draw, as variance_sweep keeps it
            seed = derive_seed(9, k)
            assert random_signs(job_rng(seed), shape, out=out) is out
            assert out.tobytes() == random_signs(job_rng(seed), shape).tobytes()
            assert np.array_equal(out, job_rng(seed).integers(0, 2, size=shape) * 2 - 1)


class TestDeriveSeedArrays:
    def test_array_grid_equals_scalar_chain(self):
        rows = np.arange(70, dtype=np.uint64)[:, None]
        cols = np.arange(65, dtype=np.uint64)
        for master in (0, 5, (1 << 63) + 7, (1 << 64) - 1, -3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = derive_seed(master, rows, cols)
            assert grid.shape == (70, 65) and grid.dtype == np.uint64
            assert grid.tolist() == [[derive_seed(master, i, j) for j in range(65)] for i in range(70)]

    def test_the_in_place_steps_leave_the_coordinates_alone(self):
        rows, cols = np.arange(5, dtype=np.uint64), np.arange(7, dtype=np.uint64)
        one = derive_seed(3, rows)
        grid = derive_seed(3, rows[:, None], cols)
        assert rows.tolist() == list(range(5)) and cols.tolist() == list(range(7))
        assert grid[:, 0].tolist() == derive_seed(3, rows, 0).tolist() != one.tolist()

    def test_wrapping_values_match(self):
        xs = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = _splitmix64_into(np.array(xs, dtype=np.uint64))
            seeds3 = derive_seed(9, np.array(xs, dtype=np.uint64), 2, np.uint64(3))
        assert arr.tolist() == [splitmix64(x) for x in xs]
        assert seeds3.tolist() == [derive_seed(9, x, 2, 3) for x in xs]

    def test_zero_d_one_d_and_int_coordinates_mix(self):
        # a 0-d xor gives a NumPy scalar, whose wrapping add would warn
        top = (1 << 64) - 1
        xs = [0, 3, 1 << 63, top]
        for master in (5, top):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                alone = derive_seed(master, np.array(3, dtype=np.uint64))
                mixed = derive_seed(master, np.array(top, dtype=np.uint64), 2,
                                    np.array(xs, dtype=np.uint64), np.array(7, dtype=np.uint64))
                first = derive_seed(master, np.array(xs, dtype=np.uint64), np.array(0, dtype=np.uint64))
            assert alone.shape == () and alone.dtype == np.uint64
            assert int(alone) == derive_seed(master, 3)
            assert mixed.tolist() == [derive_seed(master, top, 2, x, 7) for x in xs]
            assert first.tolist() == [derive_seed(master, x, 0) for x in xs]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_signed_arrays_equal_the_scalar_chain(self, dtype):
        # negatives reduce mod 2^64, as a negative int does
        rows = np.arange(-4, 5, dtype=dtype)[:, None]
        cols = np.array([0, -1, 2, np.iinfo(dtype).min, np.iinfo(dtype).max], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = derive_seed(7, rows, cols, np.array(-2, dtype=dtype))
        assert grid.dtype == np.uint64
        assert grid.tolist() == [[derive_seed(7, int(i), int(j), -2) for j in cols] for i in rows[:, 0]]

    @pytest.mark.parametrize("coord", [np.arange(3.0), np.array([True, False]), np.array(2.0)],
                             ids=["float64", "bool", "0-d float64"])
    def test_non_integer_arrays_are_refused(self, coord):
        with pytest.raises(InvalidArgument, match="seed must be an integer"):
            derive_seed(1, coord)
        with pytest.raises(InvalidArgument, match="seed must be an integer"):
            derive_seed(1, np.arange(3), coord)


class TestNumpyIntegerMasters:
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
    @pytest.mark.parametrize("master", [0, 3, 127, -1, -2, -128])
    def test_equals_the_python_int_seed(self, dtype, master):
        if master < 0 and dtype is np.uint64:
            master += 1 << 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derive_seed(dtype(master), 1, 2) == derive_seed(master, 1, 2)
            assert derive_seed(dtype(master)) == derive_seed(master)
            # a coordinate follows the master's rule
            assert derive_seed(1, dtype(master), 2) == derive_seed(1, master, 2)

    def test_matmul_with_an_int64_seed_equals_the_int_seed(self):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matmul(a, b, MatMulConfig(shots=1024, seed=np.int64(3)))
        want = matmul(a, b, MatMulConfig(shots=1024, seed=3))
        assert np.array_equal(got.c, want.c)
        assert np.array_equal(got.z_hat, want.z_hat)
