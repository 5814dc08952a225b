"""The verification battery: acceptance criteria 1, 2, 3, 5 and 7.

`qstacker verify` and the acceptance suite both run these functions, so each
bound is defined once. Each takes a master seed, derives its streams from it
by criterion number, and returns (ok, detail). The callers choose only the
reference product of criterion 3 and the per-family count of criterion 7.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import StateFamily, entropy, generate_state
from .hadamard import analytic_overlap, circuit_verify
from .matmul import MatMulConfig, matmul
from .seeding import derive_seed
from .stacking import StackingPattern
from .vectors import encode


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


def exact_matmul(master: int, reference) -> tuple[bool, str]:
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


def entropy_inequalities(master: int, per_family: int) -> tuple[bool, str]:
    """Criterion 7: purity >= e^-H and collision entropy <= H on every distribution."""
    violations = 0
    for fam in StateFamily:
        for k in range(per_family):
            _, dist = generate_state(fam, 32, derive_seed(master, 7, ord(fam.value[0]), k))
            rep = entropy(dist)
            if rep.purity < math.exp(-rep.shannon_nats) - 1e-12:
                violations += 1
            if rep.collision_entropy > rep.shannon_nats + 1e-12:
                violations += 1
    total = per_family * len(StateFamily)
    return violations == 0, f"{total} distributions, {violations} violations"
