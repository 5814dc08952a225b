import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from spec import spec_sweep

from qstacker import (
    ProbDist,
    StateFamily,
    SweepPairing,
    adaptive_shots,
    concentration_check,
    crossing_point,
    derive_seed,
    dividend_bound,
    entropy,
    generate_state,
    pearson,
    sweep_levels,
    variance_band,
    variance_sweep,
)
from qstacker.cli import write_sweep_csv
from qstacker.entropy import (LN2, _draw_probs, _isotonic_decreasing,
                              _t_two_tailed, shannon_entropy)
from qstacker.errors import ConstantSeries, InvalidArgument, InvalidDistribution, NoCrossing
from qstacker.seeding import MAX_SHOTS, job_rng
from qstacker.vectors import EncodedState

FAMILIES = list(StateFamily)


class TestEntropyReport:
    def test_uniform_four(self):
        rep = entropy([0.25, 0.25, 0.25, 0.25])
        assert rep.shannon_nats == pytest.approx(math.log(4), abs=1e-12)
        assert rep.purity == pytest.approx(0.25, abs=1e-15)
        assert rep.collision_entropy == pytest.approx(math.log(4), abs=1e-12)
        assert rep.effective_dim == pytest.approx(4.0, rel=1e-12)

    def test_delta(self):
        rep = entropy([1.0, 0.0, 0.0])
        assert rep.shannon_nats == 0.0
        assert rep.purity == 1.0
        assert rep.h_max == pytest.approx(math.log(3))

    def test_half_support(self):
        rep = entropy([0.5, 0.5, 0.0, 0.0])
        assert rep.shannon_nats == pytest.approx(math.log(2), abs=1e-12)
        assert rep.purity == pytest.approx(0.5, abs=1e-15)

    def test_bits_conversion(self):
        rep = entropy([0.25] * 4)
        assert rep.shannon_bits == pytest.approx(2.0, abs=1e-12)

    def test_invalid_distributions(self):
        with pytest.raises(InvalidDistribution):
            ProbDist(np.array([0.5, 0.6]))
        with pytest.raises(InvalidDistribution):
            ProbDist(np.array([-0.1, 1.1]))
        with pytest.raises(InvalidDistribution):
            ProbDist(np.array([0.5, float("nan")]))


@pytest.mark.parametrize("make", [
    ProbDist,
    lambda p: EncodedState(p, 1.0),
    entropy,
    lambda p: concentration_check(p, trials=10, seed=1),
], ids=["ProbDist", "EncodedState", "entropy", "concentration_check"])
def test_a_record_freezes_its_own_copy(make):
    p = np.array([0.5, 0.5])
    record = make(p)
    p[0] = 0.25  # the caller's array stays writable
    for held in (getattr(record, name) for name in ("p", "amplitudes") if hasattr(record, name)):
        assert held.tolist() == [0.5, 0.5] and not held.flags.writeable


class TestDividendBound:
    def test_zero_entropy(self):
        assert dividend_bound(0.0, 100) == 0.0
        for h in (-1e-9, float("nan"), float("inf")):  # zero is the least entropy there is
            with pytest.raises(InvalidArgument, match="entropy must be finite and >= 0"):
                dividend_bound(h, 10)

    def test_ln4_at_8192(self):
        assert dividend_bound(math.log(4), 8192) == pytest.approx(0.75 / 8192, rel=1e-12)

    def test_asymptote(self):
        assert dividend_bound(50.0, 1000) == pytest.approx(1e-3, rel=1e-9)

    def test_monotone_in_entropy_and_shots(self):
        hs = np.linspace(0.0, 6.0, 30)
        vals = [dividend_bound(h, 512) for h in hs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert dividend_bound(1.0, 2048) < dividend_bound(1.0, 512)


class TestGenerateState:
    def test_interpolated_endpoints(self):
        _, d0 = generate_state(StateFamily.INTERPOLATED, 8, seed=1, t=0.0)
        assert shannon_entropy(d0.p) == 0.0
        _, d1 = generate_state(StateFamily.INTERPOLATED, 8, seed=1, t=1.0)
        assert shannon_entropy(d1.p) == pytest.approx(math.log(8), abs=1e-12)

    def test_exponential_entropy_matches_direct_formula(self):
        _, dist = generate_state(StateFamily.EXPONENTIAL, 64, seed=5)
        direct = -sum(p * math.log(p) for p in dist.p if p > 0)
        assert entropy(dist).shannon_nats == pytest.approx(direct, abs=1e-12)

    def test_uniform_support_sizes(self):
        for m in (1, 3, 17, 64):
            _, dist = generate_state(StateFamily.UNIFORM, 64, seed=m, support=m)
            nz = dist.p[dist.p > 0]
            assert len(nz) == m
            assert np.allclose(nz, 1.0 / m, atol=1e-15)

    def test_state_amplitudes_square_to_probs(self):
        for fam in FAMILIES:
            psi, dist = generate_state(fam, 16, seed=9)
            assert np.allclose(psi.amplitudes**2, dist.p, atol=1e-14)

    def test_deterministic(self):
        a1, d1 = generate_state(StateFamily.NORMAL, 32, seed=100)
        a2, d2 = generate_state(StateFamily.NORMAL, 32, seed=100)
        assert np.array_equal(a1.amplitudes, a2.amplitudes)
        assert np.array_equal(d1.p, d2.p)

    def test_invalid_support(self):
        with pytest.raises(InvalidArgument, match=r"support 9 outside \[1, 8\]"):
            generate_state(StateFamily.UNIFORM, 8, seed=1, support=9)
        with pytest.raises(InvalidArgument, match="need support size >= 2, got n=1"):
            generate_state(StateFamily.UNIFORM, 1, seed=1)
        with pytest.raises(InvalidArgument, match=r"interpolation parameter t=1.5 outside \[0, 1\]"):
            generate_state(StateFamily.INTERPOLATED, 8, seed=1, t=1.5)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_probabilities_only_draw_keeps_the_bits(self, family):
        shaped = {"t": 0.3} if family is StateFamily.INTERPOLATED else {"support": 5}
        for k in range(20):
            seed = derive_seed(31, k)
            for shape in ({}, shaped):
                dist, rng = _draw_probs(family, 8, seed, **shape)
                # the generator is left where generate_state draws its signs
                amps = (rng.integers(0, 2, size=8) * 2 - 1) * np.sqrt(dist.p)
                psi, want = generate_state(family, 8, seed, **shape)
                assert dist.p.tobytes() == want.p.tobytes()
                assert amps.tobytes() == psi.amplitudes.tobytes()


class TestEntropyInequalities:
    def test_purity_and_collision_bounds(self):
        # e^{-H} <= sum p^2 <= 1 and H2 <= H for every family
        count = 0
        for fam in FAMILIES:
            for k in range(500):
                _, dist = generate_state(fam, 32, derive_seed(60, ord(fam.value[0]), k))
                rep = entropy(dist)
                assert rep.purity <= 1.0 + 1e-15
                assert rep.purity >= math.exp(-rep.shannon_nats) - 1e-12
                assert rep.collision_entropy <= rep.shannon_nats + 1e-12
                count += 1
        assert count == 500 * len(FAMILIES)

    def test_equality_on_uniform_support(self):
        for m in (1, 2, 8, 32):
            _, dist = generate_state(StateFamily.UNIFORM, 32, seed=m, support=m)
            rep = entropy(dist)
            assert abs(rep.purity - math.exp(-rep.shannon_nats)) <= 1e-12


class TestVarianceSweep:
    def test_resigned_shot_variance_obeys_ceiling(self):
        records = variance_sweep(
            StateFamily.INTERPOLATED,
            [0.0, 0.25, 0.5, 0.75, 1.0],
            dim=16,
            shots=2048,
            repetitions=400,
            seed=71,
        )
        band = 1.0 + 5.0 * math.sqrt(2.0 / 400)
        for rec in records:
            assert rec.empirical_variance <= rec.theoretical_ceiling * band

    def test_resigned_shot_variance_tracks_expectation(self):
        records = variance_sweep(
            StateFamily.UNIFORM,
            [1, 4, 16, 64],
            dim=64,
            shots=4096,
            repetitions=500,
            seed=72,
        )
        band = variance_band(500, 0.999)
        for rec in records:
            assert rec.empirical_variance <= rec.expected_shot_variance * band + 1e-15

    def test_independent_zero_overlap_pairs_hit_ceiling(self):
        # disjoint supports give mu = 0: empirical variance ~ 1/S
        records = variance_sweep(
            StateFamily.UNIFORM,
            [2, 2, 2],
            dim=256,
            shots=1024,
            repetitions=2000,
            seed=73,
            pairing=SweepPairing.INDEPENDENT,
        )
        for rec in records:
            assert rec.overlap_variance == 0.0
            assert rec.empirical_variance == pytest.approx(1.0 / 1024, rel=0.2)

    def test_dividend_bound_holds_per_level(self):
        records = variance_sweep(
            StateFamily.UNIFORM,
            [1, 2, 3, 5, 9, 16, 28, 64],
            dim=64,
            shots=8192,
            repetitions=500,
            seed=74,
        )
        band = variance_band(500, 0.999)
        for rec in records:
            assert rec.empirical_variance <= rec.dividend_bound * band + 1e-15

    def test_uniform_dispersion_tracks_purity(self):
        records = variance_sweep(
            StateFamily.UNIFORM,
            [1, 4, 16, 64],
            dim=64,
            shots=8192,
            repetitions=800,
            seed=75,
        )
        for rec in records:
            assert rec.overlap_variance == pytest.approx(rec.purity, rel=0.25)

    def test_concentrated_states_quieter_than_moderate(self):
        # overlap near +-1 at t=0 drives shot variance to zero
        records = variance_sweep(
            StateFamily.INTERPOLATED,
            [0.0, 0.5],
            dim=8,
            shots=4096,
            repetitions=400,
            seed=76,
        )
        assert records[0].empirical_variance < records[1].empirical_variance

    def test_sweep_csv(self, tmp_path):
        records = variance_sweep(
            StateFamily.NORMAL, [16, 16], dim=16, shots=512, repetitions=50, seed=77
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("family,n,H_nats,H_bits,purity,empirical_variance,dividend_bound,shots,repetitions")
        assert len(lines) == 3

    def test_sweep_csv_rows_are_the_record_fields(self, tmp_path):
        # the row layout, written out by hand: header order, repr floats, str ints
        records = variance_sweep(
            StateFamily.UNIFORM, [2, 5], dim=np.int64(8), shots=256, repetitions=20, seed=78,
            pairing=SweepPairing.INDEPENDENT,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("family,n,H_nats,H_bits,purity,empirical_variance,dividend_bound,shots,"
                            "repetitions,support,overlap_variance,total_variance,pairing")
        for r, line in zip(records, lines[1:], strict=True):
            assert line == (
                f"{r.family},{r.dim},{r.entropy_nats!r},{r.entropy_bits!r},{r.purity!r},"
                f"{r.empirical_variance!r},{r.dividend_bound!r},{r.shots},{r.repetitions},"
                f"{r.support},{r.overlap_variance!r},{r.total_variance!r},{r.pairing}"
            )
        assert lines[1].startswith("uniform,8,")


# sha256 of repr([astuple(record) ...]) of variance_sweep at seed 2026 and
# S = 8192, with sweep_levels' levels (16 at dim 64, 6 at dim 7), keyed
# by (dim, reps, family, pairing). Recorded before the sweep drew its signs
# from raw Philox words and its generators were re-keyed: 500 x 64 is the
# entropy-sweep-cli shape, and 11 x 7 signs are odd in number, so the old
# integers(0, 2) path left a buffered 32-bit half before the binomial draws.
SWEEP_STREAMS = {
    (64, 500, "normal", "resigned"): "ca65d4fab540cbd0f99919df6e46e85a9e6a2518952ba98bcf7acbf36ae23279",
    (64, 500, "normal", "independent"): "537cbbbfb4b0e4477f525f4f8bb911054b1157cd0208ec1b4a7cd28c564f5ea4",
    (64, 500, "uniform", "resigned"): "6fd0d2bea67dc01ab75e2a1e348abe7ccf34aca3f2fe46729fb7606d387c876f",
    (64, 500, "uniform", "independent"): "f7927ea0681ef2590b8d970e93caa2c1cafab6a9ef75291fc2ca86c7907fb894",
    (64, 500, "exponential", "resigned"): "268e82c45c38f747af8dcae72b168808b31b0309c55c4e05997fb0120bfa871b",
    (64, 500, "exponential", "independent"): "b029fe8e4411fd207493641c3072f0f0908e71e9f991a9c34b3036123ea41d4d",
    (64, 500, "chisquare", "resigned"): "438ec6b64598911435b88d07d742ec7301b0c1580128db91e68bc1429905e5db",
    (64, 500, "chisquare", "independent"): "3cbb72fb7fa229b0ba97e2646c95bfc25cb00598070a61eac6bf849537f2c71d",
    (64, 500, "interpolated", "resigned"): "de6e89f4d832e7839823d03a5d95a4927c050117299d167b16d4a6c2a9cfbaae",
    (64, 500, "interpolated", "independent"): "9bc9644c3420df7c5f17f208f3fded40bb82bcddac5b282608587a010c83e521",
    (7, 11, "normal", "resigned"): "5f01b1c417f01f851dd20994cecbd2f9d2d2db9f26958e079f40b349bba6c35a",
    (7, 11, "normal", "independent"): "b21af4e8d9a89c31a4fe4ea7a51a1fd69abc57cc507f518a2f81b43fd561d23f",
    (7, 11, "uniform", "resigned"): "8a679234453ade00205ac3ec4a4f2a3619eae317ca6ea8b779c130820fe9f9b8",
    (7, 11, "uniform", "independent"): "d4747cf0f2cf9730c623a7b272c5164966cd5899e8057516fcd07aed5fda1992",
    (7, 11, "exponential", "resigned"): "4824489a00617c2c1253885496fe440d2fd2605acbc31655eba023ffe02d59ae",
    (7, 11, "exponential", "independent"): "10d8ec1377438fa5b1c2931ecdeea544153ca562f9dad462fd6232f3876403f5",
    (7, 11, "chisquare", "resigned"): "2cd6352a457ecf1b2d26c9fc9495f32768fe6bb705ebde3e3a30c1220abdda30",
    (7, 11, "chisquare", "independent"): "e159cec360f3a8dce185279e723f196f5afdd7ff4e48176e5cfef3c57aa3a231",
    (7, 11, "interpolated", "resigned"): "401e9aedf6f05297487d3793922cf1c837839b1c321cd4e144ae1ffc870104c3",
    (7, 11, "interpolated", "independent"): "59faef964b9b65458201b042ccf8ad6ca7cc5824d84d7bf006d0f33d4ddd2c88",
}


@pytest.mark.parametrize("key", list(SWEEP_STREAMS), ids=lambda k: "-".join(map(str, k)))
def test_sweep_streams_are_pinned(key):
    dim, reps, family, pairing = key
    fam = StateFamily(family)
    records = variance_sweep(fam, sweep_levels(fam, 16 if dim == 64 else 6, dim), dim=dim,
                             shots=8192, repetitions=reps, seed=2026, pairing=pairing)
    digest = hashlib.sha256(repr([dataclasses.astuple(r) for r in records]).encode()).hexdigest()
    assert digest == SWEEP_STREAMS[key]


# 500 x 64 is the entropy-sweep-cli shape; 11 x 7 signs are odd in number, so
# the reference's integers(0, 2) leaves a buffered half-word; 3 x 8 is a sign
# buffer wider than it is tall
@pytest.mark.parametrize("dim, reps, count", [(64, 500, 16), (7, 11, 6), (8, 3, 6)])
@pytest.mark.parametrize("pairing", list(SweepPairing), ids=lambda p: p.value)
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_sweep_equals_the_per_level_reference(family, pairing, dim, reps, count):
    levels = sweep_levels(family, count, dim)
    ours = variance_sweep(family, levels, dim=dim, shots=8192, repetitions=reps, seed=2027,
                          pairing=pairing)
    want = spec_sweep(family, levels, dim, 8192, reps, 2027, pairing)
    assert [repr(r) for r in ours] == [repr(r) for r in want]


@settings(deadline=None, max_examples=300)
@given(data=st.data(), family=st.sampled_from(FAMILIES), pairing=st.sampled_from(list(SweepPairing)),
       dim=st.integers(2, 9), reps=st.integers(2, 12),
       shots=st.sampled_from([1, 2, 1000, 8192, 2**20, 2**53 + 1, MAX_SHOTS]), seed=st.integers(0, 2**64 - 1))
def test_drawn_sweeps_equal_the_per_level_reference(data, family, pairing, dim, reps, shots, seed):
    # supports 1..dim, or t in [0, 1] for the interpolated family, drawn as given
    level = st.floats(0.0, 1.0) if family is StateFamily.INTERPOLATED else st.integers(1, dim)
    levels = data.draw(st.lists(level, min_size=1, max_size=5), label="levels")
    ours = variance_sweep(family, levels, dim=dim, shots=shots, repetitions=reps, seed=seed,
                          pairing=pairing)
    want = spec_sweep(family, levels, dim, shots, reps, seed, pairing)
    assert [repr(r) for r in ours] == [repr(r) for r in want]


def _assert_row_forms(x):
    assert np.mean(x, axis=-1).tolist() == [float(np.mean(r)) for r in x]
    assert np.var(x, axis=-1, ddof=1).tolist() == [float(np.var(r, ddof=1)) for r in x]


class TestStatistics:
    @settings(deadline=None, max_examples=200)
    @given(rows=st.integers(1, 40), cols=st.integers(2, 5000), scale=st.integers(-8, 8),
           shift=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_row_forms_are_the_bits_of_each_row(self, rows, cols, scale, shift, seed):
        # variance_sweep reduces a whole family's (levels, reps) arrays along the last
        # axis; a shift of the normal's centre brings the cancellation of a sample variance
        x = (np.random.default_rng(seed).normal(size=(rows, cols)) + shift) * 10.0**scale
        _assert_row_forms(x)

    @pytest.mark.parametrize("x", [[1.0, 1.0], [0.0, 1e-8], [1e8, -1e8, 3.0], [0.1] * 4999])
    def test_fixed_series(self, x):
        # each series as a one-row array
        _assert_row_forms(np.array([x]))


class TestVarianceBand:
    def test_value_is_the_chi_square_quantile_over_r(self):
        from scipy.stats import chi2

        assert variance_band(500, 0.999) == float(chi2.ppf(0.999, 500) / 500)
        assert variance_band(np.int64(500), 0.999) == variance_band(500, 0.999)

    @pytest.mark.parametrize(
        "args",
        [(0, 0.999), (-5, 0.999), (2.5, 0.999), ("500", 0.999),
         (500, 0.0), (500, 1.0), (500, 1.5), (500, float("nan")), (500, "0.9")],
    )
    def test_bad_arguments_raise(self, args):
        with pytest.raises(InvalidArgument):
            variance_band(*args)


class TestPearson:
    def test_exact_line(self):
        xs = np.arange(10.0)
        stats = pearson(xs, 2 * xs + 1)
        assert stats.r == pytest.approx(1.0, abs=1e-12)
        assert stats.p_value <= 1e-30

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        with pytest.raises(InvalidArgument):  # NaN has no spread either
            pearson([1.0, 2.0, float("nan"), 4.0], [1.0, 3.0, 2.0, 5.0])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_magnitudes(self, scale):
        # unscaled, 1e-200's squares underflow to a "constant" series and
        # 1e200's overflow
        stats = pearson([1.0 * scale, 2.0 * scale, 3.0 * scale], [1.0, 3.0, 2.0])
        assert stats.r == pytest.approx(0.5, abs=1e-15)
        assert stats.p_value == pytest.approx(2.0 / 3.0, abs=1e-14)  # one dof: 2/pi atan(sqrt 3)

    @settings(deadline=None, max_examples=300)
    @given(k=st.integers(-1000, 1000), j=st.integers(-1000, 1000), m=st.integers(3, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_power_of_two_scales_leave_r_and_p_bit_for_bit(self, k, j, m, seed):
        rng = np.random.default_rng(seed)
        # magnitudes in [1, 2), so x * 2^-1000 is still a normal float and
        # each scaling is exact
        x, y = rng.uniform(1.0, 2.0, size=(2, m)) * rng.choice([-1.0, 1.0], size=(2, m))
        assert pearson(x * 2.0**k, y * 2.0**j) == pearson(x, y)

    def test_too_few_points(self):
        with pytest.raises(InvalidArgument, match="need at least 3 points, got 2"):
            pearson([1.0, 2.0], [2.0, 1.0])

    def test_reference_fixture(self):
        # frozen r/p from an independent statistics package run once
        xs = [1.931921, -1.186562, 0.055462, -0.327867, -1.380162, -0.385802,
              1.079274, 0.431117, 0.34512, -1.183764, -0.656432, 0.120996,
              1.115714, 1.004608, 1.477293, -0.503549, 1.226359, -1.236944,
              0.638678, 0.015749]
        ys = [0.809771, -1.280058, 1.376819, -0.162349, -2.261094, 0.222769,
              -0.066241, -0.537395, -0.110042, -1.596691, 0.589041, -0.708123,
              -0.576123, 0.16454, 1.61531, 0.098931, 1.77328, -1.26322,
              0.364935, -0.454395]
        stats = pearson(xs, ys)
        assert stats.r == pytest.approx(0.682529168487161, abs=1e-6)
        assert stats.p_value == pytest.approx(0.0009138308323645016, abs=1e-6)
        assert stats.sample_count == 20


def correlated_series(m: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """xs and ys of length m whose sample correlation is r up to rounding:
    ys = r u + sqrt(1 - r^2) v for centred orthonormal u = xs and v."""
    g = np.random.default_rng(m).normal(size=(m, 2))
    u, v = np.linalg.qr(g - g.mean(axis=0))[0].T
    return u, r * u + math.sqrt((1.0 - r) * (1.0 + r)) * v


# |r| >= 1e-3 up to 1 - 1e-12, with denser steps near 1 where p falls fastest
GRID_R = [1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-12]
GRID_M = [*range(3, 61), 100, 1000, 10000]


class TestTwoTailedPValue:
    """The t-test p-value I_x(nu/2, 1/2), computed in the package without scipy."""

    @pytest.mark.parametrize("t", [1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6, 1e8])
    def test_one_degree_of_freedom_is_the_cauchy_tail(self, t):
        expected = 2.0 / math.pi * math.atan(1.0 / t)
        assert _t_two_tailed(1, t * t) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("t", [1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6, 1e8])
    def test_two_degrees_of_freedom_closed_form(self, t):
        root = math.sqrt(2.0 + t * t)
        expected = 2.0 / (root * (root + t))
        assert _t_two_tailed(2, t * t) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_pearson_matches_scipy_betainc_on_a_grid(self):
        from scipy.special import betainc

        worst = (0.0, None)
        for m in GRID_M:
            nu = m - 2
            for r in GRID_R + [-r for r in GRID_R]:
                stats = pearson(*correlated_series(m, r))
                assert stats.r == pytest.approx(r, rel=1e-6)
                t2 = stats.r * stats.r * nu / (1.0 - stats.r * stats.r)
                # pearson clamps p below at the smallest normal float
                expected = max(float(betainc(nu / 2.0, 0.5, nu / (nu + t2))), np.finfo(np.float64).tiny)
                error = abs(stats.p_value - expected) / expected
                worst = max(worst, (error, (m, r)), key=lambda w: w[0])
        assert worst[0] <= 1e-9, f"relative error {worst[0]:.2e} at (m, r) = {worst[1]}"

    def test_zero_correlation_gives_one(self):
        stats = pearson([-1.0, 0.0, 1.0], [1.0, -2.0, 1.0])
        assert stats.r == 0.0
        assert stats.p_value == 1.0
        assert _t_two_tailed(7, 0.0) == 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_perfect_correlation_gives_the_tiny_clamp(self, sign):
        xs = np.array([0.0, 0.0, 2.0, 2.0])  # centred sum of squares 4: r is exactly +-1
        stats = pearson(xs, sign * xs)
        assert stats.r == sign
        assert stats.p_value == np.finfo(np.float64).tiny

    @pytest.mark.parametrize("m", [3, 4, 5, 10, 30, 100, 1000, 10000])
    def test_p_never_increases_with_abs_r(self, m):
        nu = m - 2
        # the whole range, and a fine grid about where the fraction changes tail
        switch = math.sqrt(1.5 / (nu / 2.0 + 2.5))  # 1 - r^2 = (a + 1)/(a + b + 2)
        for grid in (np.linspace(0.0, 1.0 - 1e-12, 4001),
                     np.linspace(switch * (1.0 - 1e-4), switch * (1.0 + 1e-4), 4001)):
            ps = [_t_two_tailed(nu, r * r * nu / (1.0 - r * r)) for r in grid.tolist()]
            assert all(later <= earlier for earlier, later in zip(ps, ps[1:]))


class TestCrossingPoint:
    def test_synthetic_lines(self):
        hs = np.linspace(0.0, 6.0, 13)
        a = [(h, 1.0 - 0.1 * h) for h in hs]
        b = [(h, 0.8 - 0.05 * h) for h in hs]
        cp = crossing_point(a, b)
        assert cp.h_nats == pytest.approx(4.0, abs=1e-6)
        assert cp.h_bits == pytest.approx(4.0 / math.log(2), abs=1e-5)
        assert cp.slope_a < cp.slope_b  # steeper line crosses from above

    def test_identical_sweeps_have_no_crossing(self):
        hs = np.linspace(0.0, 3.0, 8)
        a = [(h, 1.0 - 0.2 * h) for h in hs]
        with pytest.raises(NoCrossing):
            crossing_point(a, list(a))

    def test_disjoint_ranges(self):
        a = [(0.0, 1.0), (1.0, 0.5)]
        b = [(2.0, 1.0), (3.0, 0.5)]
        with pytest.raises(NoCrossing, match=r"no shared entropy interval \(2.0, 1.0\)"):
            crossing_point(a, b)

    def test_non_crossing_parallel(self):
        hs = np.linspace(0.0, 3.0, 8)
        a = [(h, 1.0 - 0.1 * h) for h in hs]
        b = [(h, 0.5 - 0.1 * h) for h in hs]
        with pytest.raises(NoCrossing):
            crossing_point(a, b)

    def test_skips_a_non_finite_difference(self):
        # the grid point 5e-324 lies inside a subnormal entropy step, where
        # np.interp's slope overflows; the sign change at 2/3 still counts
        a = [(0.0, 0.0), (1.0, 0.25), (5e-324, 0.0)]
        b = [(0.0, 0.25), (0.5, 0.25), (1.0, 0.0), (2.2250738585e-313, 0.0)]
        assert crossing_point(a, b).h_nats == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("column", [0, 1], ids=["entropy", "variance"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_points_are_refused(self, value, column, side):
        # finite, these two sweeps cross at h = 1
        sweeps = {"a": [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)], "b": [(0.0, 0.0), (2.0, 1.0)]}
        point = list(sweeps[side][1])
        point[column] = value
        sweeps[side][1] = tuple(point)
        with pytest.raises(InvalidArgument, match="sweep entropies and variances must be finite"):
            crossing_point(sweeps["a"], sweeps["b"])

    def test_accepts_sweep_records(self):
        recs_a = variance_sweep(
            StateFamily.UNIFORM, [1, 2, 4, 8, 16, 32, 64], dim=64,
            shots=4096, repetitions=300, seed=80,
        )
        level = float(np.median([r.total_variance for r in recs_a]))
        recs_b = [(r.entropy_nats, level) for r in recs_a]
        cp = crossing_point(recs_a, recs_b)
        assert 0.0 <= cp.h_nats <= math.log(64)


def _reference_points(sweep):
    pts = []
    for h, v in sweep:
        pts.append((float(h), float(v)))
    pts.sort()
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def _reference_crossing(sweep_a, sweep_b):
    """The Python scan over every grid point that the one-array scan replaced:
    (h_nats, h_bits, slope_a, slope_b) of the last sign change."""
    xa, ya = _reference_points(sweep_a)
    xb, yb = _reference_points(sweep_b)
    if len(xa) < 2 or len(xb) < 2:
        raise NoCrossing("each sweep needs at least two entropy levels")
    lo = max(xa.min(), xb.min())
    hi = min(xa.max(), xb.max())
    if not (hi > lo):
        raise NoCrossing(f"no shared entropy interval ({lo}, {hi})")
    fa = _isotonic_decreasing(ya)
    fb = _isotonic_decreasing(yb)
    grid = np.union1d(np.linspace(lo, hi, 2049), np.concatenate([xa, xb]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    diff = np.interp(grid, xa, fa) - np.interp(grid, xb, fb)
    keep = np.isfinite(diff)
    grid, diff = grid[keep], diff[keep]
    scale = max(np.abs(ya).max(), np.abs(yb).max(), 1e-300)
    sign = np.sign(np.where(np.abs(diff) <= 1e-12 * scale, 0.0, diff))
    crossings = []
    last = 0.0
    last_idx = 0
    for i, s in enumerate(sign):
        if s == 0.0:
            continue
        if last != 0.0 and s != last:
            d0, d1 = diff[last_idx], diff[i]
            frac = d0 / (d0 - d1) if d1 != d0 else 0.5
            crossings.append(float(grid[last_idx] + frac * (grid[i] - grid[last_idx])))
        last = s
        last_idx = i
    if not crossings:
        raise NoCrossing("fitted variance curves do not change order in the overlap")
    h_star = crossings[-1]

    def local_slope(x, f, h):
        i = int(np.searchsorted(x, h))
        i = max(1, min(i, len(x) - 1))
        dx = x[i] - x[i - 1]
        return float((f[i] - f[i - 1]) / dx) if dx > 0 else 0.0

    return h_star, h_star / LN2, local_slope(xa, fa, h_star), local_slope(xb, fb, h_star)


def _outcome(fn, *args):
    # a warning is an exception here (filterwarnings = error): a subnormal
    # entropy step overflows the local slope in both scans alike
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# entropies and variances on coarse lattices give duplicate entropies, flat
# stretches and curves that touch; the free floats give everything else
_ENTROPIES = st.integers(0, 8).map(lambda k: k * 0.5) | st.floats(0.0, 4.0)
_VARIANCES = st.integers(0, 6).map(lambda k: k * 0.25) | st.floats(0.0, 2.0)
_SWEEPS = st.lists(st.tuples(_ENTROPIES, _VARIANCES), min_size=2, max_size=12)


class TestCrossingScan:
    @pytest.mark.slow
    @settings(deadline=None, max_examples=500)
    @given(sweep_a=_SWEEPS, sweep_b=_SWEEPS)
    # np.interp over the subnormal entropy steps gives an infinite difference
    # at the grid point 5e-324; both scans skip it and cross at 2/3
    @example(sweep_a=[(0.0, 0.0), (1.0, 0.25), (5e-324, 0.0)],
             sweep_b=[(0.0, 0.25), (0.5, 0.25), (1.0, 0.0), (2.2250738585e-313, 0.0)])
    def test_matches_the_python_scan(self, sweep_a, sweep_b):
        def ours(a, b):
            cp = crossing_point(a, b)
            return cp.h_nats, cp.h_bits, cp.slope_a, cp.slope_b

        assert _outcome(ours, sweep_a, sweep_b) == _outcome(_reference_crossing, sweep_a, sweep_b)


class TestConcentration:
    @pytest.mark.parametrize("trials, n", [(2, 2), (11, 7), (10_000, 32)])
    def test_equals_the_integer_sign_formula(self, trials, n):
        # reference: integer signs from integers(0, 2), np.mean and np.std
        p = np.random.default_rng(n).dirichlet(np.ones(n))
        signs = job_rng(94).integers(0, 2, size=(trials, n)) * 2 - 1
        sq = (signs @ p) ** 2
        verdict = concentration_check(p, trials=trials, seed=94)
        assert verdict.estimate == float(np.mean(sq))
        assert verdict.stderr == float(np.std(sq, ddof=1) / math.sqrt(trials))

    def test_delta_equality(self):
        verdict = concentration_check([1.0, 0.0, 0.0, 0.0], trials=100, seed=90)
        assert verdict.estimate == pytest.approx(1.0, abs=1e-15)
        assert verdict.lower_bound == pytest.approx(1.0, abs=1e-12)
        assert verdict.passed

    def test_uniform_random_walk_variance(self):
        n = 16
        verdict = concentration_check([1.0 / n] * n, trials=40000, seed=91)
        assert verdict.estimate == pytest.approx(1.0 / n, rel=0.1)
        assert verdict.passed

    def test_exponential_family_verdict(self):
        _, dist = generate_state(StateFamily.EXPONENTIAL, 32, seed=92)
        verdict = concentration_check(dist, trials=10000, seed=93)
        assert verdict.passed
        # closed form: E[mu^2] = sum p_i^2 under random sign diagonals
        assert verdict.estimate == pytest.approx(float(np.sum(dist.p**2)), rel=0.15)


class TestAdaptiveShots:
    def test_at_max_entropy(self):
        assert adaptive_shots(math.log(16), math.log(16), 0.1, 10**6) == 100

    def test_one_bit_below_max_doubles(self):
        assert adaptive_shots(math.log(16) - math.log(2), math.log(16), 0.1, 10**6) == 200

    def test_concentrated_state_capped_formula(self):
        assert adaptive_shots(0.0, math.log(1024), 0.1, 10**6) == 102400

    def test_cap_respected(self):
        assert adaptive_shots(0.0, math.log(1024), 0.01, 10**6) == 10**6

    def test_non_increasing_in_entropy(self):
        hmax = math.log(256)
        values = [adaptive_shots(h, hmax, 0.1, 10**9) for h in np.linspace(0, hmax, 40)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_entropy(self):
        with pytest.raises(InvalidArgument, match=r"entropy 5.0 outside \[0, 1.0\]"):
            adaptive_shots(5.0, 1.0, 0.1, 100)
        with pytest.raises(InvalidArgument, match=r"entropy -0.5 outside \[0, 1.0\]"):
            adaptive_shots(-0.5, 1.0, 0.1, 100)
        with pytest.raises(InvalidArgument, match=r"entropy nan outside \[0, 2.0\]"):
            adaptive_shots(float("nan"), 2.0, 0.1, 10**6)
        with pytest.raises(InvalidArgument, match=r"entropy 1.0 outside \[0, inf\]"):
            adaptive_shots(1.0, float("inf"), 0.1, 100)
