"""Every count or size a caller passes goes through errors.as_int.

Each site below refuses a float, a numeric string and a value under its
minimum, and gives the same output for a NumPy integer as for a Python int
(compared by repr, so a NumPy integer stored unconverted shows up).
"""

import numpy as np
import pytest

from qstacker import (
    HadamardJob,
    MatMulConfig,
    NetworkShape,
    StackingPattern,
    StateFamily,
    TrainConfig,
    adaptive_shots,
    concentration_check,
    dividend_bound,
    encode,
    error_budget,
    generate_state,
    ingest_mnist_idx,
    matmul,
    plan,
    plan_jobs,
    sample_hadamard,
    split_dataset,
    variance_sweep,
)
from qstacker.errors import InvalidArgument, ShapeMismatch

SHAPE = NetworkShape(4, 4, 3)
PSI = encode([0.6, 0.8])
PHI = encode([1.0, 0.0])
A = np.array([[1.0, 2.0], [0.0, -1.0]])
FEATURES = np.arange(20.0).reshape(10, 2)
LABELS = np.arange(10) % 2


def _sweep(**kwargs):
    args = dict(shots=64, repetitions=10)
    args.update(kwargs)
    return variance_sweep(StateFamily.UNIFORM, [2, 4], dim=8, seed=5, **args)


def _product(budget):
    r = matmul(A, A, MatMulConfig(shots=64, seed=1, qubit_budget=budget))
    return r.c.tobytes(), r.plan_used


def _split(train_count=4, test_count=3):
    d = split_dataset(FEATURES, LABELS, 1, counts=(train_count, test_count))
    return d.train_idx.tolist(), d.test_idx.tolist()


def _plan_jobs(**kwargs):
    args = dict(num_jobs=6, row_len=3, dim=4, qubit_budget=9)
    args.update(kwargs)
    return plan_jobs(pattern=StackingPattern.BALANCED, **args)


def _mnist(files, **kwargs):
    features, labels = ingest_mnist_idx(*files, **kwargs)
    return features.tobytes(), labels.tolist()


# (site, call of a count value and the IDX file pair, a valid count, a count
# under the minimum, the error that count raises)
SITES = [
    ("TrainConfig.batch_size", lambda v, f: TrainConfig(SHAPE, batch_size=v), 5, 0, InvalidArgument),
    ("TrainConfig.epochs", lambda v, f: TrainConfig(SHAPE, epochs=v), 7, 0, InvalidArgument),
    ("NetworkShape.inputs", lambda v, f: NetworkShape(v, 4, 3), 4, 0, ShapeMismatch),
    ("NetworkShape.hidden", lambda v, f: NetworkShape(4, v, 3), 4, 0, ShapeMismatch),
    ("NetworkShape.outputs", lambda v, f: NetworkShape(4, 4, v), 3, 0, ShapeMismatch),
    ("variance_sweep.shots", lambda v, f: _sweep(shots=v), 64, 0, InvalidArgument),
    ("variance_sweep.repetitions", lambda v, f: _sweep(repetitions=v), 10, 1, InvalidArgument),
    ("concentration_check.trials", lambda v, f: concentration_check([0.5, 0.5], v, 3), 20, 1,
     InvalidArgument),
    ("dividend_bound.shots", lambda v, f: dividend_bound(1.0, v), 100, 0, InvalidArgument),
    ("error_budget.shots", lambda v, f: error_budget(2.0, v, mu=0.5), 100, 0, InvalidArgument),
    ("adaptive_shots.s_max", lambda v, f: adaptive_shots(0.0, 2.0, 0.1, v), 300, 0, InvalidArgument),
    ("HadamardJob.shots", lambda v, f: sample_hadamard(HadamardJob(PSI, PHI, shots=v, seed=3)),
     128, 0, InvalidArgument),
    ("plan.n", lambda v, f: plan(v, 4, StackingPattern.BATCH, 100), 3, 0, InvalidArgument),
    ("plan_jobs.num_jobs", lambda v, f: _plan_jobs(num_jobs=v), 6, -1, InvalidArgument),
    ("plan_jobs.row_len", lambda v, f: _plan_jobs(row_len=v), 3, -1, InvalidArgument),
    ("plan_jobs.dim", lambda v, f: _plan_jobs(dim=v), 4, 0, InvalidArgument),
    ("plan_jobs.qubit_budget", lambda v, f: _plan_jobs(qubit_budget=v), 9, 2, InvalidArgument),
    ("MatMulConfig.qubit_budget", lambda v, f: _product(v), 4, 1, InvalidArgument),
    ("generate_state.n", lambda v, f: generate_state(StateFamily.NORMAL, v, 4)[1].p.tobytes(), 8, 1,
     InvalidArgument),
    ("generate_state.support",
     lambda v, f: generate_state(StateFamily.UNIFORM, 8, 4, support=v)[1].p.tobytes(), 3, 0,
     InvalidArgument),
    ("split_dataset.train_count", lambda v, f: _split(train_count=v), 4, -1, InvalidArgument),
    ("split_dataset.test_count", lambda v, f: _split(test_count=v), 3, -1, InvalidArgument),
    ("ingest_mnist_idx.downsample", lambda v, f: _mnist(f, downsample=v, limit=3), 2, 0,
     InvalidArgument),
    ("ingest_mnist_idx.limit", lambda v, f: _mnist(f, limit=v), 3, 0, InvalidArgument),
]


@pytest.mark.parametrize("call, good, below, below_error",
                         [pytest.param(*site[1:], id=site[0]) for site in SITES])
class TestCountSites:
    @pytest.mark.parametrize("bad", [2.5, "7"], ids=["float", "string"])
    def test_non_integer_is_refused(self, call, good, below, below_error, bad, mnist_idx_files):
        with pytest.raises(InvalidArgument, match="integer"):
            call(bad, mnist_idx_files)

    def test_below_minimum_is_refused(self, call, good, below, below_error, mnist_idx_files):
        with pytest.raises(below_error):
            call(below, mnist_idx_files)

    def test_numpy_integer_matches_int(self, call, good, below, below_error, mnist_idx_files):
        assert repr(call(np.int64(good), mnist_idx_files)) == repr(call(good, mnist_idx_files))
