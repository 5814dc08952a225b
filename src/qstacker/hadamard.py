"""Hadamard-test inner-product estimation.

Two execution paths compute the same distribution:

  * production path: the ancilla |0> probability for states psi, phi is
    p0 = (1 + <psi|phi>)/2 exactly, so shot outcomes are drawn from
    Binomial(S, p0) with a per-job counter-based stream (the job's Philox
    key is its seed; seeding.job_binomial re-keys a per-thread generator);
  * verification path (circuit_verify): an explicit (n+1)-qubit statevector
    simulation of the ancilla-Hadamard / controlled-unitary / ancilla-Hadamard
    circuit, used as an oracle that the analytic shortcut is the true
    interference probability.

A SWAP-test comparator is included: it yields |<psi|phi>|^2 and therefore
loses the sign of the overlap, which is why the Hadamard test is the
primitive used for signed matrix elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DimNotPowerOfTwo, DimTooLarge, ZeroState, as_int
from .seeding import job_binomial
from .vectors import EncodedState

MAX_VERIFY_QUBITS = 10  # data qubits; the explicit circuit adds one ancilla


@dataclass(frozen=True)
class HadamardJob:
    """One inner-product estimation task: a state pair, shot count, seed."""

    psi: EncodedState
    phi: EncodedState
    shots: int
    seed: int

    def __post_init__(self):
        if self.psi.dim != self.phi.dim:
            raise DimMismatch(f"{self.psi.dim} != {self.phi.dim}")
        object.__setattr__(self, "shots", as_int(self.shots, "shots", minimum=1))


@dataclass(frozen=True)
class ShotResult:
    """Ancilla measurement tallies for one job."""

    count0: int
    count1: int

    @property
    def shots(self) -> int:
        return self.count0 + self.count1


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimator z_hat = P(0) - P(1) plus simulation-side truth."""

    z_hat: float
    true_overlap: float | None = None
    variance_theoretical: float | None = None


def analytic_overlap(psi: EncodedState, phi: EncodedState) -> float:
    """Exact real overlap <psi|phi>, clamped to [-1, 1] against rounding."""
    if psi.dim != phi.dim:
        raise DimMismatch(f"{psi.dim} != {phi.dim}")
    if psi.is_zero or phi.is_zero:
        raise ZeroState("overlap undefined for the zero-vector sentinel")
    # min/max gives np.clip's float, NaN and -0.0 included, at a fraction of its cost
    return min(max(float(np.dot(psi.amplitudes, phi.amplitudes)), -1.0), 1.0)


def sample_hadamard(job: HadamardJob) -> ShotResult:
    """Draw ancilla counts for one job.

    count0 ~ Binomial(S, (1 + mu)/2) from the job's own Philox stream;
    identical jobs (including seed) always yield identical counts.
    """
    mu = analytic_overlap(job.psi, job.phi)
    p0 = min(max((1.0 + mu) / 2.0, 0.0), 1.0)
    count0 = job_binomial(job.seed, job.shots, p0)
    return ShotResult(count0=count0, count1=job.shots - count0)


def estimate(result: ShotResult, true_overlap: float | None = None) -> OverlapEstimate:
    """Turn counts into the overlap estimator z_hat = (count0 - count1)/S."""
    shots = result.shots
    z_hat = (result.count0 - result.count1) / shots
    var = None
    if true_overlap is not None:
        var = (1.0 - true_overlap ** 2) / shots
    return OverlapEstimate(z_hat=z_hat, true_overlap=true_overlap, variance_theoretical=var)


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
        raise DimMismatch(f"{psi.dim} != {phi.dim}")
    if psi.is_zero or phi.is_zero:
        raise ZeroState("circuit verification needs normalized states")
    d = psi.dim
    n = d.bit_length() - 1
    if d != 1 << n:
        raise DimNotPowerOfTwo(f"dim {d} is not a power of two")
    if n > MAX_VERIFY_QUBITS:
        raise DimTooLarge(f"{n} data qubits exceeds the {MAX_VERIFY_QUBITS}-qubit verification scale")

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
