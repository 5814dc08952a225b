"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 1, 2, 3, 5 and 7 run from `qstacker.checks`, which pins their
tolerances and is shared with `qstacker verify`; every other tolerance is
pinned here. The master seed is fixed at 42.
"""

import math
import statistics

import numpy as np
from conftest import triple_loop

from qstacker import (
    MatMulConfig,
    NetworkShape,
    StackingPattern,
    StateFamily,
    TrainConfig,
    checks,
    concentration_check,
    crossing_point,
    derive_seed,
    generate_state,
    ingest_iris,
    ingest_mnist_idx,
    matmul,
    pearson,
    plan,
    split_dataset,
    train,
    variance_band,
    variance_sweep,
)
from qstacker.errors import NoCrossing
from qstacker.nn import CLASSICAL, QUANTUM, _loss_and_grads, init_model

MASTER = 42


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} criterion {number:2d} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_circuit_fidelity():
    report(1, "circuit fidelity", *checks.circuit_fidelity(MASTER))


def test_criterion_02_estimator_law():
    report(2, "estimator law", *checks.estimator_law(MASTER))


def test_criterion_03_exact_mode_equivalence():
    report(3, "exact-mode matmul", *checks.exact_matmul(MASTER, triple_loop))


def test_criterion_04_sampled_matmul_bound():
    shots = 65536
    total = violations = 0
    for k in range(20):
        rng = np.random.default_rng(derive_seed(MASTER, 4, k))
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        r = matmul(a, b, MatMulConfig(shots=shots, seed=derive_seed(MASTER, 4, k, 1)))
        bound = 4.0 * r.norm_products / math.sqrt(shots)
        violations += int(np.sum(np.abs(r.c - a @ b) > bound))
        total += 64
    frac = 1.0 - violations / total
    report(4, "sampled matmul bound", frac >= 0.99,
           f"{total - violations}/{total} elements within 4 sigma ({frac:.4f})")


def test_criterion_05_pattern_invariance():
    report(5, "pattern invariance", *checks.pattern_invariance(MASTER))


def test_criterion_06_planner_formulas():
    ok = True
    for n in range(1, 33):
        for dim in (4, 16):
            q = max(1, math.ceil(math.log2(dim))) + 1
            h = plan(n, dim, StackingPattern.HORIZONTAL, 1 << 30)
            b = plan(n, dim, StackingPattern.BALANCED, 1 << 30)
            v = plan(n, dim, StackingPattern.VERTICAL, 1 << 30)
            ok = ok and h.cycle_count == n * n and h.width == q
            ok = ok and b.cycle_count == n and b.width == n * q
            ok = ok and v.cycle_count == 1 and v.width == n * n * q
    report(6, "planner formulas", ok, "cycle counts (N^2, N, 1) and widths exact for N in 1..32")


def test_criterion_07_purity_renyi_inequality():
    report(7, "purity/Renyi inequality", *checks.entropy_inequalities(MASTER, 20000))


UNIFORM_LEVELS = [max(1, int(round(v))) for v in np.geomspace(1, 64, 16)]


def _uniform_sweep(shots, reps, seed):
    return variance_sweep(
        StateFamily.UNIFORM, UNIFORM_LEVELS, dim=64,
        shots=shots, repetitions=reps, seed=seed,
    )


def test_criterion_08_entropy_dividend_direction():
    uniform = _uniform_sweep(8192, 500, derive_seed(MASTER, 8, 0))
    stats_u = pearson([r.entropy_nats for r in uniform], [r.total_variance for r in uniform])
    assert stats_u.r < -0.8, f"uniform r = {stats_u.r:.4f}"
    assert stats_u.p_value < 1e-3, f"uniform p = {stats_u.p_value:.2e}"

    normal = variance_sweep(
        StateFamily.NORMAL, [1024] * 16, dim=1024,
        shots=8192, repetitions=500, seed=derive_seed(MASTER, 8, 1),
    )
    stats_n = pearson([r.entropy_nats for r in normal], [r.total_variance for r in normal])
    assert stats_n.p_value > 0.01, f"normal p = {stats_n.p_value:.4f} (r = {stats_n.r:.3f})"

    high_shots = _uniform_sweep(65536, 150, derive_seed(MASTER, 8, 2))
    stats_h = pearson(
        [r.entropy_nats for r in high_shots], [r.total_variance for r in high_shots]
    )
    assert stats_h.r < -0.8, f"uniform at S=65536: r = {stats_h.r:.4f}"
    assert stats_h.p_value < 1e-3

    report(8, "entropy dividend direction", True,
           f"uniform r={stats_u.r:.3f} (p={stats_u.p_value:.1e}); "
           f"normal r={stats_n.r:.3f} (p={stats_n.p_value:.3f}); "
           f"S=65536 r={stats_h.r:.3f}")


def test_criterion_09_dividend_bound():
    reps = 500
    records = _uniform_sweep(8192, reps, derive_seed(MASTER, 9))
    band = variance_band(reps, 0.999)
    worst = ""
    ok = True
    for rec in records:
        limit = rec.dividend_bound * band + 1e-15
        if rec.empirical_variance > limit:
            ok = False
            worst = f"H={rec.entropy_nats:.3f}: {rec.empirical_variance:.3e} > {limit:.3e}"
    report(9, "dividend bound", ok,
           worst or f"all {len(records)} levels under (1-e^-H)/S with {band:.3f}x band")


def test_criterion_10_concentration_check():
    # stochastic-weight families, where the purity bound is strict and the
    # 3-sigma Monte-Carlo verdict has real margin; the uniform equality case
    # (purity == e^{-H} exactly) is asserted exactly in the unit tests
    families = [StateFamily.NORMAL, StateFamily.EXPONENTIAL,
                StateFamily.CHI_SQUARE, StateFamily.INTERPOLATED]
    passed = 0
    for k in range(50):
        fam = families[k % len(families)]
        _, dist = generate_state(fam, 32, derive_seed(MASTER, 10, k))
        verdict = concentration_check(dist, trials=10_000, seed=derive_seed(MASTER, 10, k, 1))
        passed += int(verdict.passed)
    report(10, "concentration check", passed == 50, f"{passed}/50 verdicts pass at 1e4 trials")


def test_criterion_11_crossing_point():
    hits = []
    tried = 0
    for k in range(3):
        seed = derive_seed(MASTER, 11, k)
        uniform = _uniform_sweep(8192, 500, derive_seed(seed, 1))
        exponential = variance_sweep(
            StateFamily.EXPONENTIAL, UNIFORM_LEVELS, dim=64,
            shots=8192, repetitions=500, seed=derive_seed(seed, 2),
        )
        tried += 1
        try:
            cp = crossing_point(exponential, uniform)
        except NoCrossing:
            continue
        if cp.slope_b < cp.slope_a:  # uniform (sweep B) steeper at the crossing
            hits.append(cp)
    ok = len(hits) > 0
    detail = f"{len(hits)}/{tried} replicates crossed with uniform steeper"
    if hits:
        bits = [f"{cp.h_bits:.2f}" for cp in hits]
        near = [cp for cp in hits if abs(cp.h_bits - 2.58) <= 0.6]
        detail += f"; H* bits = {bits} (reference 2.58 +/- 0.6: {len(near)}/{len(hits)})"
    report(11, "crossing point", ok, detail)


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
    rng = np.random.default_rng(derive_seed(MASTER, 14))
    worst = 0.0
    for trial in range(20):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        shape = NetworkShape(*dims)
        model = init_model(shape, seed=derive_seed(MASTER, 14, trial))
        xb = rng.normal(size=(4, dims[0]))
        yb = rng.integers(0, dims[2], size=4)
        _, dw1, dw2, _ = _loss_and_grads(model, xb, yb, CLASSICAL, 64, 0)
        h = 1e-6
        for w, dw in ((model.w1, dw1), (model.w2, dw2)):
            num = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + h
                lp = _loss_and_grads(model, xb, yb, CLASSICAL, 64, 0)[0]
                w[idx] = orig - h
                lm = _loss_and_grads(model, xb, yb, CLASSICAL, 64, 0)[0]
                w[idx] = orig
                num[idx] = (lp - lm) / (2 * h)
            denom = max(float(np.linalg.norm(dw)), float(np.linalg.norm(num)), 1e-300)
            worst = max(worst, float(np.linalg.norm(dw - num)) / denom)
    report(14, "gradient check", worst <= 1e-5, f"20 nets, worst relative error {worst:.2e}")
