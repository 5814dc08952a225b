"""Hadamard-test inner-product estimation.

Two execution paths compute the same distribution:

  * production path: the ancilla |0> probability for states psi, phi is
    p0 = (1 + <psi|phi>)/2 exactly, so one sample_hadamard(psi, phi, S, seed)
    call draws the shot outcomes from Binomial(S, p0) on the element's own
    counter-based stream (its Philox key is the seed; seeding.rekeyed_rng
    resets the thread's one generator to it, and the draw is done before
    the next re-key);
  * verification path (circuit_verify): an explicit (n+1)-qubit statevector
    simulation of the ancilla-Hadamard / controlled-unitary / ancilla-Hadamard
    circuit, used as an oracle that the analytic shortcut is the true
    interference probability.

A SWAP-test comparator is included: it yields |<psi|phi>|^2 and therefore
loses the sign of the overlap, which is why the Hadamard test is the
primitive used for signed matrix elements.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, ZeroState, as_int
from .seeding import MAX_SHOTS, rekeyed_rng
from .vectors import EncodedState

MAX_VERIFY_QUBITS = 10  # data qubits; the explicit circuit adds one ancilla
_EXACT_FLOAT = 1 << 53  # every integer up to here is a float64


def analytic_overlap(psi: EncodedState, phi: EncodedState) -> float:
    """Exact real overlap <psi|phi>, clamped to [-1, 1] against rounding."""
    # one call per live element: plain attributes and ndarray.dot, whose
    # bits equal np.dot's without its dispatch (x @ y turns -0.0 into +0.0)
    x, y = psi.amplitudes, phi.amplitudes
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"{x.shape[0]} != {y.shape[0]}")
    if psi.source_norm == 0.0 or phi.source_norm == 0.0:
        raise ZeroState("overlap undefined for the zero-vector sentinel")
    # min/max gives np.clip's float, NaN and -0.0 included, at a fraction of
    # its cost; an overlap already in [-1, 1], the usual case, skips both calls
    mu = float(x.dot(y))
    return mu if -1.0 <= mu <= 1.0 else min(max(mu, -1.0), 1.0)


def sample_hadamard(psi: EncodedState, phi: EncodedState, shots: int, seed: int) -> int:
    """The ancilla |0> count of one Hadamard test on psi and phi.

    count0 ~ Binomial(shots, (1 + mu)/2), equal to job_rng(seed)'s draw;
    the same arguments always yield the same count.
    """
    # one call per live element: a plain int in range is kept without a call
    if type(shots) is not int or not 1 <= shots <= MAX_SHOTS:
        shots = as_int(shots, "shots", minimum=1, maximum=MAX_SHOTS)
    mu = analytic_overlap(psi, phi)
    # p0 lies in [0, 1]: mu is clamped to [-1, 1], rounding is monotone, 0 and 2 are exact
    return int(rekeyed_rng(seed).binomial(shots, (1.0 + mu) / 2.0))


def estimate(count0, shots: int):
    """z_hat = P(0) - P(1) = (2 count0 - S)/S for an int or an integer array of
    counts, rounded once from the exact quotient, so both forms agree bit for bit.

    An int divides as Python ints, which round once. An array divides in
    int64 and float64 while S <= 2**53, where the numerator and S are exact
    floats; above that float64 would round both before dividing, so each
    count is divided as a Python int.
    """
    if shots > _EXACT_FLOAT and isinstance(count0, np.ndarray):
        z = [(2 * c - shots) / shots for c in count0.ravel().tolist()]
        return np.array(z, dtype=np.float64).reshape(count0.shape)
    return (2 * count0 - shots) / shots


def _mapping_unitary(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """A real orthogonal W with W @ psi = phi (Householder reflection).

    Any unitary taking psi to phi serves: the interference pattern depends
    only on <psi|phi>. For psi == phi the identity is returned.
    """
    u = psi - phi
    nu2 = float(np.dot(u, u))
    if nu2 < 1e-28:
        return np.eye(len(psi))
    return np.eye(len(psi)) - (2.0 / nu2) * np.outer(u, u)


def circuit_verify(psi: EncodedState, phi: EncodedState) -> float:
    """Exact ancilla P(0) from the explicit (n+1)-qubit interference circuit.

    Builds the full statevector, applies H on the ancilla, the controlled
    state-mapping unitary as an explicit block matrix, then H again, and
    returns the probability mass on ancilla |0>. Must agree with
    (1 + analytic_overlap)/2 to 1e-10.
    """
    if psi.dim != phi.dim:
        raise ShapeMismatch(f"{psi.dim} != {phi.dim}")
    if psi.is_zero or phi.is_zero:
        raise ZeroState("circuit verification needs normalized states")
    d = psi.dim
    n = d.bit_length() - 1
    if d != 1 << n:
        raise ShapeMismatch(f"dim {d} is not a power of two")
    if n > MAX_VERIFY_QUBITS:
        raise ShapeMismatch(f"{n} data qubits exceeds the {MAX_VERIFY_QUBITS}-qubit verification scale")

    # State layout: index (a*d + k) is ancilla bit a, data basis state k.
    state = np.zeros(2 * d)
    state[:d] = psi.amplitudes

    def ancilla_h(s):
        top, bot = s[:d], s[d:]
        return np.concatenate([(top + bot), (top - bot)]) / np.sqrt(2.0)

    controlled = np.eye(2 * d)
    controlled[d:, d:] = _mapping_unitary(psi.amplitudes, phi.amplitudes)

    state = ancilla_h(state)
    state = controlled @ state
    state = ancilla_h(state)
    return float(np.dot(state[:d], state[:d]))


def swap_test_overlap_squared(psi: EncodedState, phi: EncodedState) -> float:
    """Squared overlap |<psi|phi>|^2, the quantity a SWAP test measures.

    Positive by construction: the overlap's sign is unrecoverable from it.
    """
    return analytic_overlap(psi, phi) ** 2
