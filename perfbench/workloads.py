"""The benchmark's four workloads.

Each workload is a closed loop of operations ("ops") from one client. Op i
has inputs that are a pure function of (workload seed, i), made by
prepare(i) outside the timed interval; run() is the timed call into
qstacker; check() compares the output with a numpy oracle, again untimed.
Every op does the same amount of work, so op latencies are comparable.
The untraced path uses only qstacker's public entry points: `matmul`,
`MatMulConfig`, `cli.main`, `nn.train` and the dataset helpers.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import struct

import numpy as np
import qstacker
import qstacker.cli
import qstacker.nn

import oracles

FAMILIES = ("normal", "uniform", "exponential", "chisquare", "interpolated")


def subseed(seed: int, *keys: int) -> int:
    """A 63-bit seed derived from the workload seed and integer keys."""
    ss = np.random.SeedSequence([seed % 2**64, *keys])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, *keys]))


def write_bin(path, m: np.ndarray) -> None:
    """qstacker's binary matrix format: <uint32 rows, cols> then row-major <f8."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", *m.shape))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def _fresh(*paths) -> None:
    """Delete earlier outputs, so the next op creates its files anew.

    Rewriting a file in place (open with truncation) makes ext4 start
    writing its blocks back to disk at close, which ties op latency to a
    shared disk; a file deleted before writeback never reaches it.
    """
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)


def _quiet_cli(argv) -> None:
    """Run the CLI in-process with its stdout summary discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = qstacker.cli.main(argv)
    if code != 0:
        raise oracles.CheckFailed(f"qstacker {argv[0]} exited with code {code}")


class Workload:
    name = ""
    min_ops = 0  # timed ops a run makes even if --seconds has passed
    trace_ops = ()  # op indices of one traced pass
    elements_per_op = 0  # overlap estimates one op completes

    def __init__(self, root, seed: int, workdir):
        self.seed = seed

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> None:
        raise NotImplementedError


class MatmulSampled(Workload):
    """64 x k times k x 64 sampled products, one per op.

    Three consecutive ops form a group that shares B and cycles S through
    SHOTS; the inner dimension k changes per group. Each A has ZEROS zero
    rows and each B ZEROS zero columns (about 5%), and two columns of B copy
    and negate a row of every A in the group, so those overlaps are exactly
    +/-1.
    """

    name = "matmul-sampled"
    SHOTS = (1024, 16384, 1 << 20)
    INNER = (64, 37, 100, 48, 81, 24)
    SIZE = 64
    ZEROS = 3
    min_ops = 40
    trace_ops = (3, 4, 5)
    elements_per_op = SIZE * SIZE

    _group = None

    def _group_inputs(self, g: int):
        if self._group is not None and self._group[0] == g:
            return self._group[1]
        k = self.INNER[g % len(self.INNER)]
        rng = rng_for(self.seed, 1, g)
        b = rng.normal(size=(k, self.SIZE))
        cols = rng.choice(self.SIZE, size=self.ZEROS + 2, replace=False)
        rows = rng.choice(self.SIZE, size=self.ZEROS + 2, replace=False)
        v = rng.normal(size=(2, k))
        b[:, cols[: self.ZEROS]] = 0.0
        b[:, cols[-2]] = v[0]
        b[:, cols[-1]] = -v[1]
        planted = [(int(rows[-2]), int(cols[-2]), 1), (int(rows[-1]), int(cols[-1]), -1)]
        group = (b, rows, v, planted)
        self._group = (g, group)
        return group

    def prepare(self, i: int):
        g, p = divmod(i, len(self.SHOTS))
        b, rows, v, planted = self._group_inputs(g)
        a = rng_for(self.seed, 2, i).normal(size=(self.SIZE, b.shape[0]))
        a[rows[: self.ZEROS]] = 0.0
        a[rows[-2]] = v[0]
        a[rows[-1]] = v[1]
        cfg = qstacker.MatMulConfig(shots=self.SHOTS[p], seed=subseed(self.seed, 3, i))
        return a, b, cfg, planted

    def run(self, inputs):
        a, b, cfg, _ = inputs
        return qstacker.matmul(a, b, cfg).c

    def check(self, inputs, output) -> None:
        a, b, cfg, planted = inputs
        oracles.check_sampled(a, b, output, cfg.shots, planted)


class MatmulExactCli(Workload):
    """`qstacker matmul --exact --check-classical` on .bin files, in-process.

    Every op multiplies to a 16384-element product; the shapes cycle
    through a square output and two rectangular ones with inner dimensions
    up to 256.
    """

    name = "matmul-exact-cli"
    SHAPES = ((128, 96, 128), (256, 256, 64), (64, 200, 256))
    min_ops = 40
    trace_ops = (1, 2, 3)
    elements_per_op = 16384

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.a_path = os.path.join(workdir, "a.bin")
        self.b_path = os.path.join(workdir, "b.bin")
        self.out = os.path.join(workdir, "out")

    def prepare(self, i: int):
        m, k, n = self.SHAPES[i % len(self.SHAPES)]
        rng = rng_for(self.seed, 4, i)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        _fresh(self.a_path, self.b_path, self.out)
        write_bin(self.a_path, a)
        write_bin(self.b_path, b)
        return a, b

    def run(self, inputs):
        _quiet_cli(["matmul", "--a", self.a_path, "--b", self.b_path, "--exact",
                    "--check-classical", "--out", self.out])
        return os.path.join(self.out, "product.csv")

    def check(self, inputs, output) -> None:
        a, b = inputs
        oracles.check_exact(a, b, np.loadtxt(output, delimiter=",", ndmin=2))


class TrainIris(Workload):
    """Short quantum-mode training runs on IRIS, shape 4-4-3, batch 10, S=16384.

    Each op trains a fresh model for EPOCHS epochs with its own seed; about
    26 tiny products per epoch, so per-call overhead dominates.
    """

    name = "train-iris"
    EPOCHS = 5
    LEARNING_RATE = 0.1
    # Lowest final accuracy over 1000 seeded runs (10 splits) was 0.70; chance is 0.33.
    # At 3 epochs, 1 run in 2000 stayed at 0.33, which is why the runs are longer.
    ACCURACY_FLOOR = 0.5
    min_ops = 40
    trace_ops = (1, 2)

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.data = qstacker.nn.ingest_iris(
            os.path.join(root, "tests", "data", "iris.csv"), split_seed=subseed(seed, 5))
        self.shape = qstacker.nn.NetworkShape(4, 4, 3)
        samples = len(self.data.train_idx) + len(self.data.test_idx)
        # every forward product has live rows and columns: one job per element
        self.elements_per_op = self.EPOCHS * samples * (self.shape.hidden + self.shape.outputs)

    def prepare(self, i: int):
        return qstacker.nn.TrainConfig(
            shape=self.shape, batch_size=10, learning_rate=self.LEARNING_RATE,
            epochs=self.EPOCHS, shots=16384, seed=subseed(self.seed, 6, i))

    def run(self, inputs):
        return qstacker.nn.train(self.data, inputs)[1]

    def check(self, inputs, output) -> None:
        oracles.check_training(output.epochs, output.quantum_jobs, self.elements_per_op,
                               self.ACCURACY_FLOOR)


class EntropySweepCli(Workload):
    """`qstacker entropy-sweep` over all five families at criterion 8-11 settings."""

    name = "entropy-sweep-cli"
    LEVELS, DIM, SHOTS, REPS = 16, 64, 8192, 500
    min_ops = 50
    trace_ops = (1, 2, 3, 4)
    elements_per_op = len(FAMILIES) * LEVELS * REPS

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.out = os.path.join(workdir, "out")

    def prepare(self, i: int):
        _fresh(self.out)
        return subseed(self.seed, 7, i)

    def run(self, inputs):
        _quiet_cli(["entropy-sweep", "--families", ",".join(FAMILIES),
                    "--levels", str(self.LEVELS), "--dim", str(self.DIM),
                    "--shots", str(self.SHOTS), "--reps", str(self.REPS),
                    "--seed", str(inputs), "--out", self.out])
        return self.out

    def check(self, inputs, output) -> None:
        oracles.check_sweep(os.path.join(output, "sweep.csv"),
                            os.path.join(output, "correlation.json"), FAMILIES, self.LEVELS)


WORKLOADS = {w.name: w for w in (MatmulSampled, MatmulExactCli, TrainIris, EntropySweepCli)}
