import sys
import threading
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qstacker import HadamardJob, derive_seed, encode, job_rng, sample_hadamard
from qstacker.seeding import job_binomial, splitmix64

seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)
shot_counts = st.sampled_from([1, 2, 1024, 1 << 20]) | st.integers(min_value=1, max_value=1 << 40)
probabilities = st.sampled_from([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0]) | st.floats(
    min_value=0.0, max_value=1.0
)


class TestJobBinomial:
    @settings(deadline=None, max_examples=300)
    @given(seed=seeds, shots=shot_counts, p0=probabilities)
    def test_equals_a_fresh_job_rng_draw(self, seed, shots, p0):
        assert job_binomial(seed, shots, p0) == job_rng(seed).binomial(shots, p0)

    @settings(deadline=None)
    @given(st.lists(st.tuples(seeds, shot_counts, probabilities), min_size=2, max_size=30))
    def test_interleaved_parameters_match_fresh_draws(self, calls):
        # changing (S, p0) between calls exercises the Generator's binomial setup cache
        got = [job_binomial(seed, shots, p0) for seed, shots, p0 in calls]
        assert got == [int(job_rng(seed).binomial(shots, p0)) for seed, shots, p0 in calls]

    def test_threads_on_disjoint_jobs_match_serial(self):
        rng = np.random.default_rng(21)
        states = [encode(rng.normal(size=8)) for _ in range(12)]
        jobs = [
            HadamardJob(psi=states[k % 12], phi=states[(5 * k + 1) % 12],
                        shots=(1, 1024, 1 << 20)[k % 3], seed=derive_seed(4, k))
            for k in range(600)
        ]
        serial = [sample_hadamard(job) for job in jobs]
        workers = 4  # more threads than cores, each on its own slice
        out = [None] * len(jobs)

        def run(part):
            for k in range(part, len(jobs), workers):
                out[k] = sample_hadamard(jobs[k])

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
        assert out == serial


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

    def test_wrapping_values_match(self):
        xs = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = splitmix64(np.array(xs, dtype=np.uint64))
            seeds3 = derive_seed(9, np.array(xs, dtype=np.uint64), 2, np.uint64(3))
        assert arr.tolist() == [splitmix64(x) for x in xs]
        assert seeds3.tolist() == [derive_seed(9, x, 2, 3) for x in xs]
