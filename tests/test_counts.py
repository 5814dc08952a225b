"""Every count or size a caller passes goes through errors.as_int, and every
named option through errors.as_enum.

Each count site below refuses a float, a numeric string and a value under its
minimum, and gives the same output for a NumPy integer as for a Python int
(compared by repr, so a NumPy integer stored unconverted shows up). Each name
site refuses an unknown name and gives the same output for an enum member as
for its value string (compared by repr, so a string stored unconverted shows
up). Each shot count that feeds a binomial draw stops at seeding.MAX_SHOTS. Each
seed site (a Philox key, a derive_seed master or coordinate, a stored split
seed) gives the same output for a NumPy integer as for a Python int, and
refuses a float or a string.
"""

import numpy as np
import pytest

from qstacker import (
    MatMulConfig,
    NetworkShape,
    StackingPattern,
    StateFamily,
    SweepPairing,
    TrainConfig,
    adaptive_shots,
    concentration_check,
    derive_seed,
    dividend_bound,
    encode,
    error_budget,
    forward,
    generate_state,
    ingest_mnist_idx,
    init_model,
    job_rng,
    matmul,
    plan,
    plan_jobs,
    sample_hadamard,
    split_dataset,
    sweep_levels,
    variance_sweep,
)
from qstacker.cli import summary_dict
from qstacker.errors import InvalidArgument, ShapeMismatch
from qstacker.seeding import MAX_SHOTS

SHAPE = NetworkShape(4, 4, 3)
PSI = encode([0.6, 0.8])
PHI = encode([1.0, 0.0])
A = np.array([[1.0, 2.0], [0.0, -1.0]])
FEATURES = np.arange(20.0).reshape(10, 2)
LABELS = np.arange(10) % 2


def _sweep(**kwargs):
    args = dict(shots=64, repetitions=10, seed=5)
    args.update(kwargs)
    return variance_sweep(StateFamily.UNIFORM, [2, 4], dim=8, **args)


def _product(budget):
    r = matmul(A, A, MatMulConfig(shots=64, seed=1, qubit_budget=budget))
    return r.c.tobytes(), r.plan_used


def _split(train_count=4, test_count=3):
    d = split_dataset(FEATURES, LABELS, 1, counts=(train_count, test_count))
    return d.train_idx.tolist(), d.test_idx.tolist()


def _plan_jobs(**kwargs):
    args = dict(num_jobs=6, row_len=3, dim=4, qubit_budget=9, pattern=StackingPattern.BALANCED)
    args.update(kwargs)
    return plan_jobs(**args)


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
    ("sweep_levels.count", lambda v, f: sweep_levels(StateFamily.UNIFORM, v, 8), 3, 2,
     InvalidArgument),
    ("sweep_levels.dim", lambda v, f: sweep_levels(StateFamily.UNIFORM, 3, v), 8, 0,
     InvalidArgument),
    ("concentration_check.trials", lambda v, f: concentration_check([0.5, 0.5], v, 3), 20, 1,
     InvalidArgument),
    ("dividend_bound.shots", lambda v, f: dividend_bound(1.0, v), 100, 0, InvalidArgument),
    ("error_budget.shots", lambda v, f: error_budget(2.0, v, mu=0.5), 100, 0, InvalidArgument),
    ("adaptive_shots.s_max", lambda v, f: adaptive_shots(0.0, 2.0, 0.1, v), 300, 0, InvalidArgument),
    ("sample_hadamard.shots", lambda v, f: sample_hadamard(PSI, PHI, v, 3), 128, 0, InvalidArgument),
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


# (site, call that normalises a shot count feeding a binomial draw and returns it)
SHOT_SITES = [
    ("MatMulConfig.shots", lambda v: MatMulConfig(shots=v).shots),
    ("sample_hadamard.shots", lambda v: sample_hadamard(PHI, PHI, v, 3)),  # mu = 1: count0 = shots
    ("TrainConfig.shots", lambda v: TrainConfig(SHAPE, shots=v).shots),
    ("variance_sweep.shots", lambda v: _sweep(shots=v)[0].shots),
]


@pytest.mark.parametrize("call", [pytest.param(site[1], id=site[0]) for site in SHOT_SITES])
def test_shots_stop_at_the_binomial_limit(call):
    """NumPy's binomial takes its trial count as a C long: 2^63 - 1 is the last one."""
    assert MAX_SHOTS == (1 << 63) - 1
    assert call(MAX_SHOTS) == MAX_SHOTS
    with pytest.raises(InvalidArgument, match=f"shots must be <= {MAX_SHOTS}, got {MAX_SHOTS + 1}"):
        call(MAX_SHOTS + 1)


# (site, call of a seed value that returns what the seed drew)
SEED_SITES = [
    ("generate_state.seed", lambda v: generate_state(StateFamily.NORMAL, 8, v)[1].p.tobytes()),
    ("concentration_check.seed", lambda v: concentration_check([0.3, 0.7], 20, v)),
    ("sample_hadamard.seed", lambda v: sample_hadamard(PSI, PHI, 1024, v)),
    ("job_rng.seed", lambda v: job_rng(v).integers(0, 1 << 32, 4).tolist()),
    ("split_dataset.split_seed", lambda v: split_dataset(FEATURES, LABELS, v).train_idx.tolist()),
    ("split_dataset.split_seed.counts", lambda v: split_dataset(FEATURES, LABELS, v, counts=(4, 3)).split_seed),
    ("derive_seed.master", lambda v: derive_seed(v, 1)),
    ("derive_seed.coordinate", lambda v: derive_seed(1, v, 2)),
    ("variance_sweep.seed", lambda v: _sweep(seed=v)),
    ("init_model.seed", lambda v: init_model(SHAPE, seed=v).w1.tobytes()),
    ("forward.seed", lambda v: forward(init_model(SHAPE, 1), np.ones((2, 4)), "quantum", 64, v)[0].tobytes()),
]


@pytest.mark.parametrize("call", [pytest.param(site[1], id=site[0]) for site in SEED_SITES])
class TestSeedSites:
    """A seed or seed coordinate goes through errors.as_int, as a count does."""

    def test_numpy_integer_matches_int(self, call):
        assert repr(call(np.int64(3))) == repr(call(3))

    @pytest.mark.parametrize("bad", [1.5, "7"], ids=["float", "string"])
    def test_non_integer_is_refused(self, call, bad):
        with pytest.raises(InvalidArgument, match="seed must be an integer"):
            call(bad)


# (site, call of a name value, a member it accepts)
NAME_SITES = [
    ("MatMulConfig.pattern", lambda v: MatMulConfig(shots=64, seed=1, pattern=v),
     StackingPattern.VERTICAL),
    ("plan_jobs.pattern", lambda v: _plan_jobs(pattern=v), StackingPattern.HORIZONTAL),
    ("generate_state.family", lambda v: generate_state(v, 8, 4)[1].p.tobytes(),
     StateFamily.EXPONENTIAL),
    ("variance_sweep.family",
     lambda v: variance_sweep(v, [2, 4], dim=8, shots=64, repetitions=10, seed=5),
     StateFamily.CHI_SQUARE),
    ("variance_sweep.pairing", lambda v: _sweep(pairing=v), SweepPairing.INDEPENDENT),
    ("sweep_levels.family", lambda v: sweep_levels(v, 4, 8), StateFamily.NORMAL),
]


@pytest.mark.parametrize("call, member", [pytest.param(*site[1:], id=site[0]) for site in NAME_SITES])
class TestNameSites:
    def test_unknown_name_is_refused(self, call, member):
        with pytest.raises(InvalidArgument, match="must be one of"):
            call("diagonal")

    def test_value_string_matches_member(self, call, member):
        assert repr(call(member.value)) == repr(call(member))


def test_a_pattern_name_reports_like_its_member():
    by_name = matmul(A, A, MatMulConfig(shots=64, seed=1, pattern="vertical"))
    by_member = matmul(A, A, MatMulConfig(shots=64, seed=1, pattern=StackingPattern.VERTICAL))
    assert summary_dict(by_name) == summary_dict(by_member)
    assert summary_dict(by_name)["pattern"] == "vertical"
