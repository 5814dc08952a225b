"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 1-11 and 14 run from `qstacker.checks.CRITERIA`, which holds their
names, bounds, counts and seeds and is shared with `qstacker verify`; here
criterion 3 takes the triple-loop oracle and criterion 7 20000 distributions
per family. Only criteria 12 and 13, the training benchmarks, keep their
bodies and tolerances in this file. The master seed is fixed at 42.
"""

import statistics

import pytest
from conftest import triple_loop

from qstacker import (
    NetworkShape,
    TrainConfig,
    checks,
    derive_seed,
    ingest_iris,
    ingest_mnist_idx,
    split_dataset,
    train,
)
from qstacker.nn import CLASSICAL, QUANTUM

MASTER = 42


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} criterion {number:2d} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def check(number: int, *args) -> None:
    """Report criterion number of checks.CRITERIA at MASTER."""
    report(number, checks.CRITERIA[number][0], *checks.run(number, MASTER, *args))


def test_criterion_01_circuit_fidelity():
    check(1)


def test_criterion_02_estimator_law():
    check(2)


def test_criterion_03_exact_mode_equivalence():
    check(3, triple_loop)


def test_criterion_04_sampled_matmul_bound():
    check(4)


def test_criterion_05_pattern_invariance():
    check(5)


def test_criterion_06_planner_formulas():
    check(6)


@pytest.mark.slow
def test_criterion_07_purity_renyi_inequality():
    check(7, 20000)


def test_criterion_08_entropy_dividend_direction():
    check(8)


def test_criterion_09_dividend_bound():
    check(9)


def test_criterion_10_concentration_check():
    check(10)


def test_criterion_11_crossing_point():
    check(11)


IRIS_PATH = __file__.rsplit("/", 1)[0] + "/data/iris.csv"


def _iris_accuracy(mode, seed):
    # each run owns its stratified split: the 3-run median then measures the
    # method rather than one split's hard-sample allocation
    data = ingest_iris(IRIS_PATH, split_seed=seed)
    cfg = TrainConfig(
        shape=NetworkShape(4, 4, 3), batch_size=10, learning_rate=0.01,
        epochs=250, shots=16384, seed=seed, forward_mode=mode,
    )
    _, rep = train(data, cfg)
    if mode == QUANTUM:
        assert rep.quantum_jobs > 0, "quantum run dispatched no sampling jobs"
    return rep.final_accuracy


@pytest.mark.slow
def test_criterion_12_iris_benchmark():
    seeds = [derive_seed(MASTER, 12, k) for k in range(3)]
    classical = [_iris_accuracy(CLASSICAL, s) for s in seeds]
    quantum = [_iris_accuracy(QUANTUM, s) for s in seeds]
    med_c = statistics.median(classical)
    med_q = statistics.median(quantum)
    # shot noise must not move any run by more than one test sample (the
    # 30-sample split quantizes accuracy in steps of 1/30)
    pair_gap = max(abs(q - c) for q, c in zip(quantum, classical))
    ok = med_q >= 0.90 and med_c >= 0.93 and pair_gap <= 1.0 / 30 + 1e-9
    report(12, "IRIS benchmark", ok,
           f"quantum median {med_q:.3f} (>=0.90), classical median {med_c:.3f} (>=0.93), "
           f"same-seed gap {pair_gap:.3f}; "
           f"quantum={[f'{a:.3f}' for a in quantum]} classical={[f'{a:.3f}' for a in classical]}")


@pytest.mark.slow
def test_criterion_13_mnist_downscaled(mnist_idx_files):
    images, labels = mnist_idx_files
    features, y = ingest_mnist_idx(images, labels, downsample=2, limit=700)
    data = split_dataset(features, y, split_seed=1234, counts=(500, 200))
    seed = derive_seed(MASTER, 13)
    accs = {}
    for mode in (CLASSICAL, QUANTUM):
        cfg = TrainConfig(
            shape=NetworkShape(196, 32, 10), batch_size=1, learning_rate=0.05,
            epochs=5, shots=16384, seed=seed, forward_mode=mode,
        )
        _, rep = train(data, cfg)
        if mode == QUANTUM:
            assert rep.quantum_jobs > 0, "quantum run dispatched no sampling jobs"
        accs[mode] = rep.final_accuracy
    gap = abs(accs[QUANTUM] - accs[CLASSICAL])
    report(13, "downscaled image benchmark", gap <= 0.05,
           f"quantum {accs[QUANTUM]:.3f} vs classical {accs[CLASSICAL]:.3f} (gap {gap:.3f} <= 0.05)")


def test_criterion_14_gradient_check():
    check(14)
