"""Entropy-variance analysis of the overlap estimator.

The estimator's shot-noise variance for a state pair with true overlap mu is
(1 - mu^2)/S. For a state |psi> with amplitude distribution p paired with a
randomly re-signed copy of itself (a stochastic sign-diagonal unitary), the
squared overlap averages to the purity sum(p_i^2), which the Shannon entropy
bounds from below: e^{-H} <= sum(p_i^2). Two consequences are measurable:

  * the shot-noise variance, averaged over the stochastic signs, obeys
    sigma^2_eff <= (1 - e^{-H})/S (the entropy-variance bound);
  * the estimator's full dispersion across re-signings tracks the purity,
    so for uniform-support states it decays like e^{-H}: variance falls as
    entropy rises, while families whose entropy concentrates (e.g. normal
    weights at fixed dimension) show no significant trend.

This module generates state families, runs the sweeps, and provides the
correlation/crossing statistics used to verify both effects, plus the
entropy-driven shot scheduler.

Each state, sweep level and concentration check draws from the thread's
re-keyed generator (seeding.rekeyed_rng), the stream job_rng would build. A
sweep level draws its states first and re-keys for its own stream after them,
so no two streams are ever live at once. Sign matrices come from raw Philox
words (seeding.random_signs).

variance_sweep allocates its buffers once per family: one sign matrix that
every level overwrites, the (levels, repetitions) overlaps and estimates, and
one p0 row. A RESIGNED level draws only its state's probabilities
(_draw_probs), whose bits are generate_state's. After the last level, each
statistic is computed for the whole family at once by np.mean and np.var
along the last axis, which give each row's own np.mean and np.var bit for
bit; so every record keeps the bits of a fresh per-level loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import ConstantSeries, InvalidArgument, InvalidDistribution, NoCrossing, as_enum, as_int
from .hadamard import estimate
from .seeding import MAX_SHOTS, derive_seed, random_signs, rekeyed_rng
from .vectors import EncodedState

LN2 = math.log(2.0)
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbDist:
    """A validated probability vector over n basis states."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=np.float64)  # its own copy, frozen below
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidDistribution(f"expected a 1-D vector, got shape {arr.shape}")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidDistribution("probabilities must be finite and nonnegative")
        if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {arr.sum()!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class EntropyReport:
    shannon_nats: float
    shannon_bits: float
    purity: float
    collision_entropy: float
    h_max: float
    effective_dim: float


def shannon_entropy(p: np.ndarray) -> float:
    """-sum p ln p with 0 ln 0 = 0."""
    q = p[p > 0.0]
    return float(-np.sum(q * np.log(q))) + 0.0  # normalize -0.0


def entropy(dist: ProbDist | np.ndarray) -> EntropyReport:
    if not isinstance(dist, ProbDist):
        dist = ProbDist(dist)
    h = shannon_entropy(dist.p)
    purity = float(np.sum(dist.p**2))
    return EntropyReport(
        shannon_nats=h,
        shannon_bits=h / LN2,
        purity=purity,
        collision_entropy=float(-np.log(purity)),
        h_max=float(np.log(dist.n)),
        effective_dim=float(np.exp(h)),
    )


def dividend_bound(h_nats: float, shots: int) -> float:
    """Upper bound (1 - e^{-H})/S on the effective estimator variance."""
    if not 0.0 <= h_nats < math.inf:  # NaN fails every comparison
        raise InvalidArgument(f"entropy must be finite and >= 0, got {h_nats}")
    return (1.0 - math.exp(-h_nats)) / as_int(shots, "shots", minimum=1)


def adaptive_shots(h_nats: float, h_max: float, epsilon: float, s_max: int) -> int:
    """Entropy-scaled shot budget: S = min(s_max, ceil(s_base * e^{Hmax - H}))
    with s_base = ceil(1/epsilon^2).

    High-entropy states suppress estimator dispersion, so they earn fewer
    shots; the proportionality constant is fixed at 1 and s_max caps the
    low-entropy blow-up.
    """
    s_max = as_int(s_max, "s_max", minimum=1)
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgument(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 <= h_nats <= h_max + 1e-12 and h_max < math.inf):  # NaN fails every comparison
        raise InvalidArgument(f"entropy {h_nats} outside [0, {h_max}]")
    scale = math.exp(max(0.0, h_max - h_nats))
    raw = math.ceil(1.0 / epsilon**2) * scale
    # guard against 1-ulp excursions above exact integer values
    return int(min(s_max, math.ceil(raw - raw * 1e-12)))


class StateFamily(str, Enum):
    NORMAL = "normal"
    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"
    CHI_SQUARE = "chisquare"
    INTERPOLATED = "interpolated"


def _state_dim(n) -> int:
    """generate_state's dimension n, validated: an integer of at least 2."""
    n = as_int(n, "n")
    if n < 2:
        raise InvalidArgument(f"need support size >= 2, got n={n}")
    return n


def _draw_probs(
    family: StateFamily,
    n: int,
    seed: int,
    support: int | None = None,
    t: float | None = None,
) -> tuple[ProbDist, np.random.Generator]:
    """generate_state's probabilities for a validated family and n, with the
    generator positioned after them: p is drawn before the signs on the same
    stream, so it keeps its bits when the signs are not drawn."""
    rng = rekeyed_rng(seed)
    p = np.zeros(n)
    if family is StateFamily.INTERPOLATED:
        if t is None:
            t = float(rng.uniform())
        if not (0.0 <= t <= 1.0):
            raise InvalidArgument(f"interpolation parameter t={t} outside [0, 1]")
        p[:] = t / n
        p[0] += 1.0 - t
    else:
        if support is not None:
            m = as_int(support, "support")
        else:
            m = int(rng.integers(1, n + 1)) if family is StateFamily.UNIFORM else n
        if not (1 <= m <= n):
            raise InvalidArgument(f"support {m} outside [1, {n}]")
        idx = rng.choice(n, size=m, replace=False)
        if family is StateFamily.UNIFORM:
            p[idx] = 1.0 / m
        elif family is StateFamily.NORMAL:
            w = np.abs(rng.normal(size=m))
            p[idx] = w / w.sum()
        elif family is StateFamily.EXPONENTIAL:
            w = rng.exponential(size=m)
            p[idx] = w / w.sum()
        else:  # CHI_SQUARE, one degree of freedom
            w = rng.chisquare(1, size=m)
            p[idx] = w / w.sum()
    return ProbDist(p), rng


def generate_state(
    family: StateFamily,
    n: int,
    seed: int,
    support: int | None = None,
    t: float | None = None,
) -> tuple[EncodedState, ProbDist]:
    """Draw a random state of the family: probabilities p plus +/- signs.

    Weight families (normal/exponential/chisquare) draw positive weights on
    the chosen support and normalize; uniform puts 1/m on a random support
    of size m; interpolated blends a point mass with the uniform
    distribution, p = (1-t) delta_0 + t/n, so t sweeps entropy from 0 to
    ln n. Amplitudes are sqrt(p_i) with random signs.
    """
    family = as_enum(StateFamily, family, "family")
    n = _state_dim(n)
    dist, rng = _draw_probs(family, n, seed, support, t)
    # not random_signs: the uniform family's integers(1, n + 1) may have left
    # a buffered 32-bit half, which integers(0, 2) draws first
    signs = rng.integers(0, 2, size=n) * 2 - 1
    amps = signs * np.sqrt(dist.p)
    return EncodedState(amps, 1.0), dist


class SweepPairing(str, Enum):
    # per batch, the partner is the same state under fresh random signs
    # (a stochastic sign-diagonal unitary applied to psi)
    RESIGNED = "resigned"
    # one fixed, independently drawn same-family partner for all batches
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class SweepRecord:
    family: str
    pairing: str
    dim: int
    support: int
    level: float
    entropy_nats: float
    entropy_bits: float
    purity: float
    empirical_variance: float  # dispersion of z_hat around per-batch true overlaps
    overlap_variance: float  # dispersion of the true overlaps themselves
    total_variance: float  # full dispersion of z_hat around its sample mean
    expected_shot_variance: float  # (1 - mean mu^2)/S for the realized batches
    theoretical_ceiling: float  # 1/S
    dividend_bound: float
    shots: int
    repetitions: int


def sweep_levels(family: StateFamily, count: int, dim: int) -> list:
    """variance_sweep's levels: t in [0, 1] for interpolated, support sizes 1..dim
    spaced geometrically for uniform, exponential and chisquare."""
    family = as_enum(StateFamily, family, "family")
    count = as_int(count, "levels", minimum=3)  # each family's correlation needs three points
    dim = as_int(dim, "dim", minimum=1)  # generate_state refuses dim 1 with InvalidArgument
    if family is StateFamily.INTERPOLATED:
        return list(np.linspace(0.0, 1.0, count))
    if family is StateFamily.NORMAL:
        return [dim] * count  # fixed full support, entropy varies by draw
    return [max(1, int(round(v))) for v in np.geomspace(1, dim, count)]


def variance_sweep(
    family: StateFamily,
    levels,
    dim: int,
    shots: int,
    repetitions: int,
    seed: int,
    pairing: SweepPairing = SweepPairing.RESIGNED,
) -> list[SweepRecord]:
    """Estimate overlap-estimator dispersion across an entropy sweep.

    Each level draws one state (support size per level, or interpolation
    parameter for the interpolated family) and runs `repetitions` batches of
    `shots` samples. Under RESIGNED pairing the partner is re-signed fresh
    every batch, so the record separates shot noise (empirical_variance,
    bounded by the entropy-variance bound) from the sign-induced overlap
    dispersion (overlap_variance, which tracks the purity).
    """
    family = as_enum(StateFamily, family, "family")
    pairing = as_enum(SweepPairing, pairing, "pairing")
    shots = as_int(shots, "shots", minimum=1, maximum=MAX_SHOTS)
    repetitions = as_int(repetitions, "repetitions", minimum=2)
    dim = _state_dim(dim)
    levels = list(levels)
    coords = np.arange(len(levels))
    state_seeds = derive_seed(seed, coords).tolist()
    level_seeds = derive_seed(seed, coords, 1).tolist()
    # the sweep's buffers, allocated once: a level only draws into them
    taus = np.empty((repetitions, dim))
    mus = np.empty((len(levels), repetitions))
    z = np.empty_like(mus)
    p0 = np.empty(repetitions)
    dists = []
    for j, level in enumerate(levels):
        # the interpolated family is swept by t, every other family by support size
        shape = {"t": float(level)} if family is StateFamily.INTERPOLATED else {"support": level}
        # the level's states come first: each re-keys the thread's generator,
        # so the level's own stream is keyed only after them
        if pairing is SweepPairing.RESIGNED:
            # the state's own signs never enter mu, so only p is drawn
            dist, _ = _draw_probs(family, dim, state_seeds[j], **shape)
            rng = rekeyed_rng(level_seeds[j])
            random_signs(rng, taus.shape, out=taus)
            np.matmul(taus, dist.p, out=mus[j])  # <psi| V_b |psi> = sum_i p_i tau_bi
        else:
            psi, dist = generate_state(family, dim, state_seeds[j], **shape)
            phi, _ = generate_state(family, dim, derive_seed(seed, j, 2), **shape)
            mus[j] = float(np.dot(psi.amplitudes, phi.amplitudes))
            rng = rekeyed_rng(level_seeds[j])
        dists.append(dist)
        # np.clip((1 + mu)/2, 0, 1), in place
        np.add(mus[j], 1.0, out=p0)
        p0 /= 2.0
        np.minimum(p0, 1.0, out=p0)
        np.maximum(p0, 0.0, out=p0)
        z[j] = estimate(rng.binomial(shots, p0), shots)
    # each level's statistics are a row of these, bit for bit as the row's own np.mean and np.var
    empirical = np.mean((z - mus) ** 2, axis=-1).tolist()
    overlap = np.var(mus, axis=-1, ddof=1).tolist()
    total = np.var(z, axis=-1, ddof=1).tolist()
    mean_sq = np.mean(mus**2, axis=-1).tolist()
    records = []
    for j, (level, dist) in enumerate(zip(levels, dists)):
        h = shannon_entropy(dist.p)
        records.append(
            SweepRecord(
                family=family.value,
                pairing=pairing.value,
                dim=dim,
                support=int(np.count_nonzero(dist.p)),
                level=float(level),
                entropy_nats=h,
                entropy_bits=h / LN2,
                purity=float(np.add.reduce(dist.p * dist.p)),
                empirical_variance=empirical[j],
                overlap_variance=overlap[j],
                total_variance=total[j],
                expected_shot_variance=(1.0 - mean_sq[j]) / shots,
                theoretical_ceiling=1.0 / shots,
                dividend_bound=dividend_bound(h, shots),
                shots=shots,
                repetitions=repetitions,
            )
        )
    return records


def variance_band(repetitions: int, confidence: float = 0.999) -> float:
    """Multiplier m such that a sample variance over R batches stays below
    m times its expectation with the given confidence (chi-square band)."""
    reps = as_int(repetitions, "repetitions", minimum=1)
    if not (isinstance(confidence, numbers.Real) and 0.0 < confidence < 1.0):
        raise InvalidArgument(f"confidence must lie in (0, 1), got {confidence!r}")
    # the package's one scipy import: scipy.stats costs about 0.8 s to load,
    # so it waits for the first call
    from scipy.stats import chi2

    return float(chi2.ppf(confidence, reps) / reps)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Numerical Recipes 6.4). For x < (a + 1)/(a + b + 2) it converges within
    about 60 terms for every a and b = 1/2 (measured up to a = 5e9)."""
    floor = 1e-300  # Lentz's stand-in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > floor else floor)
    h = d
    for k in range(1, 1000):
        for num in (k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k)),
                    -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > floor else floor)
            c = 1.0 + num / c
            c = c if abs(c) > floor else floor
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return h


def _t_two_tailed(nu: int, t2: float) -> float:
    """Two-tailed p-value of Student's t with nu degrees of freedom at t^2 = t2:
    I_x(nu/2, 1/2) with x = nu/(nu + t2) (Abramowitz & Stegun 26.7.1).

    x and 1 - x = t2/(nu + t2) are both computed directly, so a tiny t2 keeps
    its digits; the fraction runs on whichever tail converges fast.
    """
    if t2 == 0.0:
        return 1.0
    a, b = nu / 2.0, 0.5
    x, y = nu / (nu + t2), t2 / (nu + t2)
    front = math.exp(a * math.log(x) + b * math.log(y)
                     - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


@dataclass(frozen=True)
class CorrelationStats:
    r: float
    p_value: float
    sample_count: int


def pearson(xs, ys) -> CorrelationStats:
    """Pearson r with a two-tailed p-value from the exact t reference.

    p = I_{nu/(nu+t^2)}(nu/2, 1/2) with nu = m - 2, the regularized
    incomplete beta form of the two-tailed t-test.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidArgument("xs and ys must be 1-D sequences of equal length")
    m = x.size
    if m < 3:
        raise InvalidArgument(f"need at least 3 points, got {m}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgument("xs and ys must be finite")
    # r does not depend on scale: dividing each series exactly by the power of
    # two of its largest magnitude (as vectors._unit_rows does) keeps its sum
    # of squares from underflowing or overflowing
    _, exp = np.frexp([np.abs(x).max(), np.abs(y).max()])
    x, y = np.ldexp(np.stack([x, y]), -exp[:, None])
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc**2)))
    sy = float(np.sqrt(np.sum(yc**2)))
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")
    r = float(np.dot(xc, yc) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    nu = m - 2
    denom = 1.0 - r * r
    p = 0.0 if denom == 0.0 else _t_two_tailed(nu, r * r * nu / denom)
    p = min(1.0, max(p, float(np.finfo(np.float64).tiny)))
    return CorrelationStats(r=r, p_value=p, sample_count=m)


def _isotonic_decreasing(y: np.ndarray) -> np.ndarray:
    """Least-squares non-increasing fit of a series ordered by abscissa
    (pool-adjacent-violators on the negated series)."""
    blocks: list[list] = []  # [mean, count]
    for v in -y:
        blocks.append([v, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, c2 = blocks.pop()
            v1, c1 = blocks.pop()
            c = c1 + c2
            blocks.append([(v1 * c1 + v2 * c2) / c, c])
    fit = np.empty_like(y)
    pos = 0
    for v, c in blocks:
        fit[pos : pos + c] = -v
        pos += c
    return fit


def _sweep_points(sweep):
    """A sweep's (entropy, variance) points sorted by entropy, as two arrays;
    a non-finite entropy or variance raises, as it does in pearson."""
    pairs = ((r.entropy_nats, r.total_variance) if isinstance(r, SweepRecord) else r for r in sweep)
    pts = sorted((float(h), float(v)) for h, v in pairs)
    x, y = np.array(pts, dtype=np.float64).reshape(-1, 2).T
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgument("sweep entropies and variances must be finite")
    return x, y


@dataclass(frozen=True)
class CrossingPoint:
    h_nats: float
    h_bits: float
    slope_a: float  # local fitted slope of sweep A at the crossing
    slope_b: float


def crossing_point(sweep_a, sweep_b) -> CrossingPoint:
    """Intersect two monotone variance-vs-entropy fits.

    Each sweep is a list of SweepRecords (their total_variance) or of
    (entropy, variance) pairs, smoothed with a non-increasing piecewise-linear
    least squares fit; the fits are compared on a dense grid over the shared
    entropy interval. Stretches where the fits coincide do not count as
    crossings; the reported abscissa is the last sign change, after which
    the curve ordering persists to the end of the overlap.
    """
    xa, ya = _sweep_points(sweep_a)
    xb, yb = _sweep_points(sweep_b)
    if len(xa) < 2 or len(xb) < 2:
        raise NoCrossing("each sweep needs at least two entropy levels")
    lo = max(xa.min(), xb.min())
    hi = min(xa.max(), xb.max())
    if not (hi > lo):
        raise NoCrossing(f"no shared entropy interval ({lo}, {hi})")
    fa = _isotonic_decreasing(ya)
    fb = _isotonic_decreasing(yb)
    # the dense grid stays: on the breakpoints alone, a difference that is zero
    # exactly at a breakpoint would be interpolated across two pieces
    grid = np.union1d(np.linspace(lo, hi, 2049), np.concatenate([xa, xb]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    diff = np.interp(grid, xa, fa) - np.interp(grid, xb, fb)
    # np.interp's slope over a subnormal entropy step can overflow to inf;
    # such points carry no ordering, so the scan skips them
    keep = np.isfinite(diff)
    grid, diff = grid[keep], diff[keep]
    scale = max(np.abs(ya).max(), np.abs(yb).max(), 1e-300)
    sign = np.sign(np.where(np.abs(diff) <= 1e-12 * scale, 0.0, diff))
    nonzero = np.flatnonzero(sign)
    changes = np.flatnonzero(sign[nonzero[1:]] != sign[nonzero[:-1]])
    if not changes.size:
        raise NoCrossing("fitted variance curves do not change order in the overlap")
    i0, i1 = nonzero[changes[-1]], nonzero[changes[-1] + 1]
    d0, d1 = diff[i0], diff[i1]
    frac = d0 / (d0 - d1)  # d0 and d1 are nonzero and of opposite signs
    h_star = float(grid[i0] + frac * (grid[i1] - grid[i0]))

    def local_slope(x: np.ndarray, f: np.ndarray, h: float) -> float:
        i = int(np.searchsorted(x, h))
        i = max(1, min(i, len(x) - 1))
        dx = x[i] - x[i - 1]
        return float((f[i] - f[i - 1]) / dx) if dx > 0 else 0.0

    return CrossingPoint(
        h_nats=h_star,
        h_bits=h_star / LN2,
        slope_a=local_slope(xa, fa, h_star),
        slope_b=local_slope(xb, fb, h_star),
    )


@dataclass(frozen=True)
class ConcentrationVerdict:
    estimate: float  # Monte-Carlo E[mu^2] under random sign-diagonal unitaries
    lower_bound: float  # e^{-H} * min |V_ii|^2
    stderr: float
    trials: int
    passed: bool


def concentration_check(
    dist: ProbDist | np.ndarray, trials: int, seed: int
) -> ConcentrationVerdict:
    """Monte-Carlo check that E[mu^2] >= e^{-H} for mu = <psi|V|psi> with V a
    random sign-diagonal unitary (|V_ii| = 1)."""
    if not isinstance(dist, ProbDist):
        dist = ProbDist(dist)
    trials = as_int(trials, "trials", minimum=2)
    signs = random_signs(rekeyed_rng(seed), (trials, dist.n))
    mus = signs @ dist.p
    sq = mus**2
    est = float(np.mean(sq))
    se = math.sqrt(float(np.var(sq, ddof=1))) / math.sqrt(trials)
    bound = float(np.exp(-shannon_entropy(dist.p)))
    return ConcentrationVerdict(
        estimate=est,
        lower_bound=bound,
        stderr=se,
        trials=trials,
        passed=est >= bound - 3.0 * se,
    )


def correlation_summary(sweeps_by_family: dict, crossings: list | None = None) -> dict:
    """Per-family correlation of entropy against estimator dispersion, plus
    any detected crossing points, as a JSON-ready dict."""
    out: dict = {"families": {}, "crossing_points": []}
    for name, records in sweeps_by_family.items():
        stats = pearson(
            [r.entropy_nats for r in records],
            [r.total_variance for r in records],
        )
        out["families"][name] = asdict(stats)
    for pair, cp in crossings or []:
        out["crossing_points"].append({"families": list(pair), **asdict(cp)})
    return out

