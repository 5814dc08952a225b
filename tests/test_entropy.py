import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    variance_band,
    variance_sweep,
)
from qstacker.entropy import LN2, _isotonic_decreasing, shannon_entropy, write_sweep_csv
from qstacker.errors import (
    ConstantSeries,
    InsufficientOverlap,
    InvalidArgument,
    InvalidDistribution,
    InvalidEntropy,
    InvalidSupport,
    NoCrossing,
    TooFewPoints,
)

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


class TestDividendBound:
    def test_zero_entropy(self):
        assert dividend_bound(0.0, 100) == 0.0
        for h in (-1e-9, float("nan"), float("inf")):  # zero is the least entropy there is
            with pytest.raises(InvalidEntropy):
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
        with pytest.raises(InvalidSupport):
            generate_state(StateFamily.UNIFORM, 8, seed=1, support=9)
        with pytest.raises(InvalidSupport):
            generate_state(StateFamily.UNIFORM, 1, seed=1)
        with pytest.raises(InvalidSupport):
            generate_state(StateFamily.INTERPOLATED, 8, seed=1, t=1.5)


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

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
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
        with pytest.raises(InsufficientOverlap):
            crossing_point(a, b)

    def test_non_crossing_parallel(self):
        hs = np.linspace(0.0, 3.0, 8)
        a = [(h, 1.0 - 0.1 * h) for h in hs]
        b = [(h, 0.5 - 0.1 * h) for h in hs]
        with pytest.raises(NoCrossing):
            crossing_point(a, b)

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
        raise InsufficientOverlap("each sweep needs at least two entropy levels")
    lo = max(xa.min(), xb.min())
    hi = min(xa.max(), xb.max())
    if not (hi > lo):
        raise InsufficientOverlap(f"no shared entropy interval ({lo}, {hi})")
    fa = _isotonic_decreasing(xa, ya)
    fb = _isotonic_decreasing(xb, yb)
    grid = np.union1d(np.linspace(lo, hi, 2049), np.concatenate([xa, xb]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    diff = np.interp(grid, xa, fa) - np.interp(grid, xb, fb)
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
    @settings(deadline=None, max_examples=500)
    @given(sweep_a=_SWEEPS, sweep_b=_SWEEPS)
    def test_matches_the_python_scan(self, sweep_a, sweep_b):
        def ours(a, b):
            cp = crossing_point(a, b)
            return cp.h_nats, cp.h_bits, cp.slope_a, cp.slope_b

        assert _outcome(ours, sweep_a, sweep_b) == _outcome(_reference_crossing, sweep_a, sweep_b)


class TestConcentration:
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
        with pytest.raises(InvalidEntropy) as exc:
            adaptive_shots(5.0, 1.0, 0.1, 100)
        assert isinstance(exc.value, InvalidArgument)  # a usage error
        with pytest.raises(InvalidEntropy):
            adaptive_shots(-0.5, 1.0, 0.1, 100)
        with pytest.raises(InvalidEntropy):
            adaptive_shots(float("nan"), 2.0, 0.1, 10**6)
        with pytest.raises(InvalidEntropy):
            adaptive_shots(1.0, float("inf"), 0.1, 100)
