"""Executable specifications of the package's seeded streams, in loop form.

Each function is a plain loop over (seed, coordinates, inputs). Every stream
is a fresh job_rng keyed by derive_seed, never the re-keyed generator, and
the arithmetic is the package's scalar rules or the NumPy ufuncs the fast
paths use. The fast paths are tested against these bit for bit, with the
hash pins as a second line; a stream change edits one function here and
re-records the hashes.
"""

import numpy as np

from qstacker import (StateFamily, SweepPairing, SweepRecord, analytic_overlap, derive_seed,
                      dividend_bound, encode, entropy, error_budget, estimate, generate_state,
                      job_rng)
from qstacker.nn import _TAG_EVAL, _TAG_FORWARD, _TAG_INIT, _TAG_SHUFFLE


def spec_count(psi, phi, shots, seed):
    """One Hadamard test: the ancilla |0> count, Binomial(S, (1 + mu)/2) on job_rng(seed)."""
    return int(job_rng(seed).binomial(shots, (1.0 + analytic_overlap(psi, phi)) / 2.0))


def spec_product(a, b, shots, seed):
    """(z_hat, true_overlap, c) of the sampled product A @ B: element (i, j)
    is one spec_count of A's row i and B's column j at derive_seed(seed, i, j),
    and c_ij = ||A_i|| ||B_j|| z_ij; a zero-norm row or column gives exact
    zeros. Where no norm or product leaves float64's normal range this equals
    matmul's exponents-last rule bit for bit."""
    rows, cols = [encode(v) for v in np.asarray(a)], [encode(v) for v in np.asarray(b).T]
    z_hat, mu, c = np.zeros((3, len(rows), len(cols)))
    for i, psi in enumerate(rows):
        for j, phi in enumerate(cols):
            if psi.is_zero or phi.is_zero:
                continue
            mu[i, j] = analytic_overlap(psi, phi)
            z_hat[i, j] = estimate(spec_count(psi, phi, shots, derive_seed(seed, i, j)), shots)
            c[i, j] = psi.source_norm * phi.source_norm * z_hat[i, j]
    return z_hat, mu, c


def classical_product(a, b):
    """The classical oracle: a literal scalar triple loop."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i, j in np.ndindex(out.shape):
        acc = 0.0
        for k in range(a.shape[1]):
            acc += a[i][k] * b[k][j]
        out[i, j] = acc
    return out


def spec_matmul_csv(result):
    """The matmul.csv text of a MatMulResult: per element, in row-major order,
    i, j and the reprs of z_hat, c_ij and the stderr, which is 0.0 in exact
    mode, else error_budget of the norms' mantissas with their exponent last."""
    mant, exp = result.norm_parts
    lines = ["i,j,z_hat,c_ij,stderr"]
    for (i, j), z in np.ndenumerate(result.z_hat):
        with np.errstate(over="ignore"):  # inf only where the norms' product overflows
            se = 0.0 if result.exact else float(
                np.ldexp(error_budget(float(mant[i, j]), result.shots, mu=float(z)), int(exp[i, j])))
        lines.append(f"{i},{j},{float(z)!r},{float(result.c[i, j])!r},{se!r}")
    return "\n".join(lines) + "\n"


def spec_sweep(family, levels, dim, shots, repetitions, seed, pairing):
    """variance_sweep as a fresh per-level loop in plain NumPy: a whole
    generate_state, integer signs from a new job_rng, np.clip, and np.mean and
    np.var of each level's own arrays."""
    records = []
    for j, level in enumerate(levels):
        shape = {"t": float(level)} if family is StateFamily.INTERPOLATED else {"support": level}
        psi, dist = generate_state(family, dim, derive_seed(seed, j), **shape)
        rep = entropy(dist)
        rng = job_rng(derive_seed(seed, j, 1))
        if pairing is SweepPairing.RESIGNED:
            taus = (rng.integers(0, 2, size=(repetitions, dim)) * 2 - 1).astype(np.float64)
            mus = taus @ dist.p
        else:
            phi, _ = generate_state(family, dim, derive_seed(seed, j, 2), **shape)
            mus = np.full(repetitions, float(np.dot(psi.amplitudes, phi.amplitudes)))
        z = estimate(rng.binomial(shots, np.clip((1.0 + mus) / 2.0, 0.0, 1.0)), shots)
        records.append(SweepRecord(
            family=family.value, pairing=pairing.value, dim=dim,
            support=int(np.count_nonzero(dist.p)), level=float(level),
            entropy_nats=rep.shannon_nats, entropy_bits=rep.shannon_bits, purity=rep.purity,
            empirical_variance=float(np.mean((z - mus) ** 2)),
            overlap_variance=float(np.var(mus, ddof=1)),
            total_variance=float(np.var(z, ddof=1)),
            expected_shot_variance=(1.0 - float(np.mean(mus**2))) / shots,
            theoretical_ceiling=1.0 / shots,
            dividend_bound=dividend_bound(rep.shannon_nats, shots),
            shots=shots, repetitions=repetitions))
    return records


def _spec_forward(w1, w2, x, shots, seed):
    """(logits, hidden, jobs) of one quantum forward pass over samples x: two
    spec_products around a sigmoid, one job per element of a nonzero row and
    a nonzero column."""
    hidden = 1.0 / (1.0 + np.exp(-spec_product(w1, x.T, shots, derive_seed(seed, 1))[2]))
    logits = spec_product(w2, hidden, shots, derive_seed(seed, 2))[2]
    jobs = sum(np.count_nonzero(m.any(axis=1)) * np.count_nonzero(v.any(axis=0))
               for m, v in ((w1, x.T), (w2, hidden)))
    return logits, hidden, int(jobs)


def spec_train(data, cfg):
    """(w1, w2, epochs, quantum_jobs) of quantum-mode mini-batch SGD: uniform
    init from the _TAG_INIT stream, one _TAG_SHUFFLE permutation per epoch,
    one forward seed per (_TAG_FORWARD, epoch, batch), summed cross-entropy
    with classical gradients, and one _TAG_EVAL accuracy per epoch on the
    test split, which must be nonempty."""
    rng = job_rng(derive_seed(cfg.seed, _TAG_INIT))
    b1, b2 = 1.0 / np.sqrt(cfg.shape.inputs), 1.0 / np.sqrt(cfg.shape.hidden)
    w1 = rng.uniform(-b1, b1, size=(cfg.shape.hidden, cfg.shape.inputs))
    w2 = rng.uniform(-b2, b2, size=(cfg.shape.outputs, cfg.shape.hidden))
    epochs, jobs = [], 0
    for epoch in range(cfg.epochs):
        order = job_rng(derive_seed(cfg.seed, _TAG_SHUFFLE, epoch)).permutation(data.train_idx)
        losses = []
        for b, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            x, y, cols = data.features[idx], data.labels[idx], np.arange(len(idx))
            logits, hidden, n = _spec_forward(w1, w2, x, cfg.shots,
                                              derive_seed(cfg.seed, _TAG_FORWARD, epoch, b))
            e = np.exp(logits - logits.max(axis=0, keepdims=True))
            probs = e / e.sum(axis=0, keepdims=True)
            losses.append(float(-np.sum(np.log(probs[y, cols] + 1e-300))) / len(idx))
            onehot = np.zeros_like(probs)
            onehot[y, cols] = 1.0
            dlogits = probs - onehot
            dz1 = (w2.T @ dlogits) * hidden * (1.0 - hidden)
            w2 -= cfg.learning_rate * (dlogits @ hidden.T)
            w1 -= cfg.learning_rate * (dz1 @ x)
            jobs += n
        x, y = data.features[data.test_idx], data.labels[data.test_idx]
        logits, _, n = _spec_forward(w1, w2, x, cfg.shots, derive_seed(cfg.seed, _TAG_EVAL, epoch))
        epochs.append((epoch, float(np.mean(losses)), float(np.mean(logits.argmax(axis=0) == y))))
        jobs += n
    return w1, w2, epochs, jobs
