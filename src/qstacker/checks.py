"""The verification battery: acceptance criteria 1-11 and 14 with their bounds.

`qstacker verify` and the acceptance suite both run them through CRITERIA, so
each bound is defined once. Each takes a master seed, derives its streams from
it by criterion number, and returns (ok, detail). verify runs every default;
the suite gives criterion 3 its triple-loop reference (default np.matmul) and
criterion 7 20000 distributions per family (default 2000). Criteria 12 and 13,
the training benchmarks, run in the suite alone.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import (StateFamily, _draw_probs, concentration_check, crossing_point, entropy,
                      pearson, sweep_levels, variance_band, variance_sweep)
from .errors import NoCrossing
from .hadamard import analytic_overlap, circuit_verify
from .matmul import MatMulConfig, matmul
from .nn import CLASSICAL, NetworkShape, _loss_and_grads, init_model
from .seeding import derive_seed
from .stacking import StackingPattern, plan
from .vectors import encode

# criterion number -> (verdict name, function of this module); run looks the
# function up when called, so a patched module attribute is the one that runs
CRITERIA = {
    1: ("circuit fidelity", "circuit_fidelity"),
    2: ("estimator law", "estimator_law"),
    3: ("exact-mode matmul", "exact_matmul"),
    4: ("sampled matmul bound", "sampled_matmul_bound"),
    5: ("pattern invariance", "pattern_invariance"),
    6: ("planner formulas", "planner_formulas"),
    7: ("purity/Renyi inequality", "entropy_inequalities"),
    8: ("entropy dividend direction", "dividend_direction"),
    9: ("dividend bound", "dividend_ceiling"),
    10: ("concentration check", "concentration_verdicts"),
    11: ("crossing point", "crossing_replicates"),
    14: ("gradient check", "gradient_check"),
}


def run(number: int, master: int, *args) -> tuple[bool, str]:
    """(ok, detail) of criterion number at master, with its extra arguments."""
    return globals()[CRITERIA[number][1]](master, *args)


def _random_state(rng, dim):
    return encode(rng.normal(size=dim))


def circuit_fidelity(master: int) -> tuple[bool, str]:
    """Criterion 1: the explicit circuit's P(0) equals (1 + mu)/2 to 1e-10."""
    rng = np.random.default_rng(derive_seed(master, 1))
    worst = 0.0
    for pair in range(200):
        n = 1 + pair % 6
        psi, phi = _random_state(rng, 1 << n), _random_state(rng, 1 << n)
        expected = (1.0 + analytic_overlap(psi, phi)) / 2.0
        worst = max(worst, abs(circuit_verify(psi, phi) - expected))
    return worst <= 1e-10, f"200 pairs n in 1..6, max |dP0| = {worst:.2e}"


def estimator_law(master: int) -> tuple[bool, str]:
    """Criterion 2: z_hat has mean mu (4 sigma) and variance (1 - mu^2)/S (ratio in [0.8, 1.2]).

    Each state pair is one product: every repetition is an element with its own seed."""
    rng = np.random.default_rng(derive_seed(master, 2))
    reps, shots = 2000, 1024
    checked = 0
    details = []
    while checked < 5:
        psi, phi = _random_state(rng, 8), _random_state(rng, 8)
        mu = analytic_overlap(psi, phi)
        if abs(mu) > 0.9:
            continue
        cfg = MatMulConfig(shots=shots, seed=derive_seed(master, 2, checked))
        zs = matmul(np.tile(psi.amplitudes, (reps, 1)), phi.amplitudes[:, None], cfg).z_hat[:, 0]
        expected_var = (1.0 - mu * mu) / shots
        var_ratio = float(np.var(zs, ddof=1)) / expected_var
        mean_err = abs(float(np.mean(zs)) - mu)
        mean_tol = 4.0 * math.sqrt(expected_var / reps)
        if not 0.8 <= var_ratio <= 1.2:
            return False, f"variance ratio {var_ratio:.3f} at mu={mu:.3f}"
        if mean_err > mean_tol:
            return False, f"mean error {mean_err:.2e} > {mean_tol:.2e} at mu={mu:.3f}"
        details.append(f"mu={mu:+.2f} ratio={var_ratio:.3f}")
        checked += 1
    return True, "; ".join(details)


def exact_matmul(master: int, reference=np.matmul) -> tuple[bool, str]:
    """Criterion 3: exact mode equals reference(a, b) to 1e-10 on 100 random shapes."""
    rng = np.random.default_rng(derive_seed(master, 3))
    worst = 0.0
    for _ in range(100):
        rows, inner, cols = (int(v) for v in rng.integers(1, 65, size=3))
        a = rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols))
        c = matmul(a, b, MatMulConfig(exact=True)).c
        worst = max(worst, float(np.abs(c - reference(a, b)).max()))
    return worst <= 1e-10, f"100 pairs up to 64x64, max error {worst:.2e}"


def sampled_matmul_bound(master: int) -> tuple[bool, str]:
    """Criterion 4: 99% of sampled 8x8 entries at S = 65536 lie within 4 sigma of a @ b."""
    shots = 65536
    total = violations = 0
    for k in range(20):
        rng = np.random.default_rng(derive_seed(master, 4, k))
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        r = matmul(a, b, MatMulConfig(shots=shots, seed=derive_seed(master, 4, k, 1)))
        bound = 4.0 * r.norm_products / math.sqrt(shots)
        violations += int(np.sum(np.abs(r.c - a @ b) > bound))
        total += 64
    frac = 1.0 - violations / total
    return frac >= 0.99, f"{total - violations}/{total} elements within 4 sigma ({frac:.4f})"


def pattern_invariance(master: int) -> tuple[bool, str]:
    """Criterion 5: matmul returns identical products under every layout."""
    ok = True
    for n in (2, 4, 8):
        rng = np.random.default_rng(derive_seed(master, 5, n))
        a, b = rng.normal(size=(n, 8)), rng.normal(size=(8, n))
        products = [
            matmul(a, b, MatMulConfig(shots=2048, pattern=p, seed=derive_seed(master, 5, n),
                                      qubit_budget=1 << 30)).c.tobytes()
            for p in StackingPattern
        ]
        ok = ok and all(c == products[0] for c in products[1:])
    return ok, "identical matmul products for N in {2,4,8}, all four layouts"


def planner_formulas(master: int) -> tuple[bool, str]:
    """Criterion 6: plan's cycle counts and widths; closed-form, so master is unused."""
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
    return ok, "cycle counts (N^2, N, 1) and widths exact for N in 1..32"


def entropy_inequalities(master: int, per_family: int = 2000) -> tuple[bool, str]:
    """Criterion 7: purity >= e^-H and collision entropy <= H on every distribution.

    Only generate_state's probabilities are drawn, here and in criterion 10:
    its signs come after them on the same stream and never enter a verdict."""
    violations = 0
    for fam in StateFamily:
        for k in range(per_family):
            dist, _ = _draw_probs(fam, 32, derive_seed(master, 7, ord(fam.value[0]), k))
            rep = entropy(dist)
            if rep.purity < math.exp(-rep.shannon_nats) - 1e-12:
                violations += 1
            if rep.collision_entropy > rep.shannon_nats + 1e-12:
                violations += 1
    total = per_family * len(StateFamily)
    return violations == 0, f"{total} distributions, {violations} violations"


def _sweep(family: StateFamily, shots: int, reps: int, seed: int, dim: int = 64):
    """A variance_sweep over the family's 16 sweep_levels at dim."""
    return variance_sweep(family, sweep_levels(family, 16, dim), dim=dim,
                          shots=shots, repetitions=reps, seed=seed)


def _trend(records):
    """pearson of a sweep's entropy against its total variance."""
    return pearson([r.entropy_nats for r in records], [r.total_variance for r in records])


def dividend_direction(master: int) -> tuple[bool, str]:
    """Criterion 8: uniform variance falls with entropy; normal weights show no trend."""
    uniform = _trend(_sweep(StateFamily.UNIFORM, 8192, 500, derive_seed(master, 8, 0)))
    normal = _trend(_sweep(StateFamily.NORMAL, 8192, 500, derive_seed(master, 8, 1), dim=1024))
    high = _trend(_sweep(StateFamily.UNIFORM, 65536, 150, derive_seed(master, 8, 2)))
    ok = (uniform.r < -0.8 and uniform.p_value < 1e-3 and normal.p_value > 0.01
          and high.r < -0.8 and high.p_value < 1e-3)
    return ok, (f"uniform r={uniform.r:.3f} (p={uniform.p_value:.1e}); "
                f"normal r={normal.r:.3f} (p={normal.p_value:.3f}); "
                f"S=65536 r={high.r:.3f}")


def dividend_ceiling(master: int) -> tuple[bool, str]:
    """Criterion 9: shot-noise variance under (1 - e^-H)/S at every uniform level."""
    reps = 500
    records = _sweep(StateFamily.UNIFORM, 8192, reps, derive_seed(master, 9))
    band = variance_band(reps, 0.999)
    worst = ""
    for rec in records:
        limit = rec.dividend_bound * band + 1e-15
        if rec.empirical_variance > limit:
            worst = f"H={rec.entropy_nats:.3f}: {rec.empirical_variance:.3e} > {limit:.3e}"
    return not worst, worst or f"all {len(records)} levels under (1-e^-H)/S with {band:.3f}x band"


def concentration_verdicts(master: int) -> tuple[bool, str]:
    """Criterion 10: concentration_check passes on 50 distributions at 1e4 trials."""
    # stochastic-weight families, where the purity bound is strict and the
    # 3-sigma Monte-Carlo verdict has real margin; the uniform equality case
    # (purity == e^{-H} exactly) is asserted exactly in the unit tests
    families = [StateFamily.NORMAL, StateFamily.EXPONENTIAL,
                StateFamily.CHI_SQUARE, StateFamily.INTERPOLATED]
    passed = 0
    for k in range(50):
        fam = families[k % len(families)]
        dist, _ = _draw_probs(fam, 32, derive_seed(master, 10, k))
        verdict = concentration_check(dist, trials=10_000, seed=derive_seed(master, 10, k, 1))
        passed += int(verdict.passed)
    return passed == 50, f"{passed}/50 verdicts pass at 1e4 trials"


def crossing_replicates(master: int) -> tuple[bool, str]:
    """Criterion 11: some exponential/uniform crossing has the uniform curve steeper."""
    replicates = 3
    hits = []
    for k in range(replicates):
        seed = derive_seed(master, 11, k)
        uniform = _sweep(StateFamily.UNIFORM, 8192, 500, derive_seed(seed, 1))
        exponential = _sweep(StateFamily.EXPONENTIAL, 8192, 500, derive_seed(seed, 2))
        try:
            cp = crossing_point(exponential, uniform)
        except NoCrossing:
            continue
        if cp.slope_b < cp.slope_a:  # uniform (sweep B) steeper at the crossing
            hits.append(cp)
    detail = f"{len(hits)}/{replicates} replicates crossed with uniform steeper"
    if hits:
        bits = [f"{cp.h_bits:.2f}" for cp in hits]
        near = [cp for cp in hits if abs(cp.h_bits - 2.58) <= 0.6]
        detail += f"; H* bits = {bits} (reference 2.58 +/- 0.6: {len(near)}/{len(hits)})"
    return len(hits) > 0, detail


def gradient_check(master: int) -> tuple[bool, str]:
    """Criterion 14: backprop gradients match central differences to 1e-5 relative."""
    rng = np.random.default_rng(derive_seed(master, 14))
    worst = 0.0
    for trial in range(20):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        model = init_model(NetworkShape(*dims), seed=derive_seed(master, 14, trial))
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
            # norms by the package's one rule, vectors._unit_rows
            dw_norm, num_norm, gap = (encode(m.ravel()).source_norm for m in (dw, num, dw - num))
            worst = max(worst, gap / max(dw_norm, num_norm, 1e-300))
    return worst <= 1e-5, f"20 nets, worst relative error {worst:.2e}"
