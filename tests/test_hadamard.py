import struct
from fractions import Fraction

import numpy as np
import pytest

from qstacker import (
    analytic_overlap,
    circuit_verify,
    derive_seed,
    encode,
    estimate,
    sample_hadamard,
    swap_test_overlap_squared,
)
from qstacker.errors import ShapeMismatch, ZeroState
from qstacker.vectors import EncodedState


def random_pair(rng, dim):
    return encode(rng.normal(size=dim)), encode(rng.normal(size=dim))


class TestAnalyticOverlap:
    def test_identical_states(self):
        s = encode([1.0, 2.0, 3.0])
        assert analytic_overlap(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_basis_states(self):
        assert analytic_overlap(encode([1, 0]), encode([0, 1])) == 0.0

    def test_known_value(self):
        assert analytic_overlap(encode([0.6, 0.8]), encode([0.8, 0.6])) == pytest.approx(
            0.96, abs=1e-15
        )

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            psi, phi = random_pair(rng, 16)
            mu = analytic_overlap(psi, phi)
            assert -1.0 <= mu <= 1.0
            assert mu == analytic_overlap(phi, psi)

    def test_clamped_at_one(self):
        v = np.full(64, 1.0 / 8.0)
        assert analytic_overlap(encode(v), encode(v.copy())) <= 1.0

    def test_rounding_past_one_clamps_to_exactly_one(self):
        rng = np.random.default_rng(0)
        states = (encode(rng.normal(size=8)) for _ in range(1000))
        s = next(s for s in states if np.dot(s.amplitudes, s.amplitudes) > 1.0)
        neg = encode(-s.amplitudes)
        assert np.dot(s.amplitudes, neg.amplitudes) < -1.0
        for mu, expected in ((analytic_overlap(s, s), 1.0), (analytic_overlap(s, neg), -1.0)):
            assert type(mu) is float and mu == expected

    def test_clamp_is_np_clip_bit_for_bit(self):
        def old(psi, phi):
            return float(np.clip(np.dot(psi.amplitudes, phi.amplitudes), -1.0, 1.0))

        def bits(x):
            return struct.pack("<d", x)

        rng = np.random.default_rng(8)
        pairs = [random_pair(rng, dim) for dim in (1, 2, 3, 16, 64) for _ in range(200)]
        for psi, _ in pairs[:200]:
            pairs += [(psi, psi), (psi, encode(-psi.amplitudes))]
        pairs += [
            (EncodedState(np.array([-0.0]), 1.0), EncodedState(np.array([1.0]), 1.0)),
            (EncodedState(np.array([np.nan, 0.0]), 1.0), encode([1.0, 0.0])),
            (EncodedState(np.array([np.inf]), 1.0), EncodedState(np.array([-2.0]), 1.0)),
        ]
        for psi, phi in pairs:
            mu = analytic_overlap(psi, phi)
            assert type(mu) is float and bits(mu) == bits(old(psi, phi))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch, match="2 != 3"):
            analytic_overlap(encode([1, 0]), encode([1, 0, 0]))

    def test_zero_state(self):
        with pytest.raises(ZeroState):
            analytic_overlap(encode([0, 0]), encode([1, 0]))


class TestSampling:
    def test_mu_plus_one_is_deterministic(self):
        s = encode([1.0, 1.0])
        for shots in (1, 7, 4096):
            count0 = sample_hadamard(s, s, shots, 1)
            assert type(count0) is int and count0 == shots

    def test_mu_minus_one_is_deterministic(self):
        psi = encode([1.0, 1.0])
        phi = encode([-1.0, -1.0])
        count0 = sample_hadamard(psi, phi, 512, 9)
        assert count0 == 0

    def test_mu_zero_fixture(self):
        # frozen count for this exact job; the 5-sigma band is the
        # independent statistical check on the sampler
        count0 = sample_hadamard(encode([1.0, 0.0]), encode([0.0, 1.0]), 65536, derive_seed(2024, 0))
        assert count0 == 32698
        assert abs(count0 / 65536 - 0.5) <= 5 * np.sqrt(0.25 / 65536)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        psi, phi = random_pair(rng, 8)
        assert sample_hadamard(psi, phi, 2048, 77) == sample_hadamard(psi, phi, 2048, 77)

    def test_seed_changes_counts(self):
        rng = np.random.default_rng(7)
        psi, phi = random_pair(rng, 8)
        a = sample_hadamard(psi, phi, 4096, 1)
        b = sample_hadamard(psi, phi, 4096, 2)
        assert a != b

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(8)
        psi, phi = random_pair(rng, 4)
        count0 = sample_hadamard(psi, phi, 999, 3)
        assert type(count0) is int and 0 <= count0 <= 999

    def test_dim_mismatch_is_refused_when_the_job_runs(self):
        with pytest.raises(ShapeMismatch, match="2 != 3"):
            sample_hadamard(encode([1, 0]), encode([1, 0, 0]), 4, 1)


class TestEstimate:
    def test_all_zeros_outcome(self):
        assert estimate(100, 100) == 1.0

    def test_balanced_outcome(self):
        assert estimate(50, 100) == 0.0

    def test_three_quarters(self):
        assert estimate(75, 100) == 0.5

    def test_difference_form_equals_2p0_minus_1(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            shots = int(rng.integers(1, 10000))
            count0 = int(rng.integers(0, shots + 1))
            assert estimate(count0, shots) == pytest.approx(2 * count0 / shots - 1, abs=1e-15)

    @pytest.mark.parametrize("shots", [1, 3, 1000, 12345, (1 << 53) + 1, (1 << 62) + 5, (1 << 63) - 1])
    def test_rounded_once_for_ints_and_arrays(self, shots):
        if shots < 1 << 53:
            counts = list(range(shots + 1))
        else:  # past 2**53 neither S nor most counts are floats: drawn counts and both ends
            rng = np.random.default_rng(shots % 997)
            drawn = [rng.binomial(shots, p0, size=500) for p0 in (0.1, 0.5, 0.9, 1.0 - 1e-12)]
            counts = [0, shots, *np.concatenate(drawn).tolist()]
        exact = [float(Fraction(2 * count0 - shots, shots)) for count0 in counts]
        ints = [estimate(count0, shots) for count0 in counts]
        array = estimate(np.array(counts, dtype=np.int64), shots)
        assert all(type(z) is float for z in ints)
        assert struct.pack(f"<{len(counts)}d", *ints) == struct.pack(f"<{len(counts)}d", *exact)
        assert array.dtype == np.float64 and array.tobytes() == np.array(exact).tobytes()
        column = estimate(np.array(counts, dtype=np.int64)[:, None], shots)
        assert column.shape == (len(counts), 1) and column.tobytes() == array.tobytes()

    def test_unbiasedness(self):
        rng = np.random.default_rng(10)
        psi, phi = random_pair(rng, 8)
        mu = analytic_overlap(psi, phi)
        reps, shots = 1000, 1024
        zs = [
            estimate(sample_hadamard(psi, phi, shots, derive_seed(10, k)), shots)
            for k in range(reps)
        ]
        tol = 4 * np.sqrt((1 - mu * mu) / (shots * reps))
        assert abs(np.mean(zs) - mu) <= tol


class TestCircuitVerify:
    def test_identical_single_qubit(self):
        s = encode([1, 0])
        assert circuit_verify(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_single_qubit(self):
        assert circuit_verify(encode([1, 0]), encode([0, 1])) == pytest.approx(0.5, abs=1e-12)

    def test_random_pairs_match_analytic(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            psi, phi = random_pair(rng, 8)
            expected = (1 + analytic_overlap(psi, phi)) / 2
            assert abs(circuit_verify(psi, phi) - expected) <= 1e-10

    def test_all_scales_up_to_six_qubits(self):
        rng = np.random.default_rng(12)
        for n in range(1, 7):
            for _ in range(5):
                psi, phi = random_pair(rng, 1 << n)
                expected = (1 + analytic_overlap(psi, phi)) / 2
                assert abs(circuit_verify(psi, phi) - expected) <= 1e-10

    def test_negated_state_gives_p0_zero(self):
        rng = np.random.default_rng(13)
        psi = encode(rng.normal(size=4))
        phi = encode(-psi.amplitudes)
        assert circuit_verify(psi, phi) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ShapeMismatch, match="dim 3 is not a power of two"):
            circuit_verify(encode([1, 1, 1]), encode([1, 0, 0]))

    def test_rejects_too_large(self):
        big = np.zeros(1 << 11)
        big[0] = 1.0
        with pytest.raises(ShapeMismatch, match="11 data qubits exceeds the 10-qubit verification scale"):
            circuit_verify(encode(big), encode(big))


class TestSwapComparator:
    def test_sign_loss_witness(self):
        psi, phi = encode([0.6, 0.8]), encode([0.6, -0.8])
        assert swap_test_overlap_squared(psi, phi) == pytest.approx(0.0784, abs=1e-12)
        assert analytic_overlap(psi, phi) == pytest.approx(-0.28, abs=1e-12)

    def test_identical(self):
        s = encode([1.0, 2.0])
        assert swap_test_overlap_squared(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert swap_test_overlap_squared(encode([1, 0]), encode([0, 1])) == 0.0

    def test_always_loses_sign_of_negative_overlaps(self):
        rng = np.random.default_rng(14)
        seen_negative = 0
        for _ in range(50):
            psi, phi = random_pair(rng, 8)
            mu = analytic_overlap(psi, phi)
            sq = swap_test_overlap_squared(psi, phi)
            assert sq == pytest.approx(mu * mu, abs=1e-12)
            if mu < 0:
                seen_negative += 1
                assert sq > 0
        assert seen_negative > 5

    def test_sampled_estimator_recovers_negative_sign(self):
        rng = np.random.default_rng(15)
        while True:
            psi, phi = random_pair(rng, 8)
            mu = analytic_overlap(psi, phi)
            if mu < -0.2:
                break
        zs = [
            estimate(sample_hadamard(psi, phi, 1024, derive_seed(15, k)), 1024)
            for k in range(300)
        ]
        assert np.mean(zs) < 0  # the comparator's square hides exactly this
        assert swap_test_overlap_squared(psi, phi) > 0
