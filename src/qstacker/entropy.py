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
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConstantSeries,
    InsufficientOverlap,
    InvalidArgument,
    InvalidDistribution,
    InvalidEntropy,
    InvalidEpsilon,
    InvalidSupport,
    NoCrossing,
    TooFewPoints,
    as_int,
)
from .seeding import derive_seed, job_rng
from .vectors import EncodedState

LN2 = math.log(2.0)
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbDist:
    """A validated probability vector over n basis states."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=np.float64)
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
        dist = ProbDist(np.asarray(dist, dtype=np.float64))
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
        raise InvalidEntropy(f"entropy must be finite and >= 0, got {h_nats}")
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
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 <= h_nats <= h_max + 1e-12 and h_max < math.inf):  # NaN fails every comparison
        raise InvalidEntropy(f"entropy {h_nats} outside [0, {h_max}]")
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
    family = StateFamily(family)
    n = as_int(n, "n")
    if n < 2:
        raise InvalidSupport(f"need support size >= 2, got n={n}")
    rng = job_rng(seed)
    p = np.zeros(n)
    if family is StateFamily.INTERPOLATED:
        if t is None:
            t = float(rng.uniform())
        if not (0.0 <= t <= 1.0):
            raise InvalidSupport(f"interpolation parameter t={t} outside [0, 1]")
        p[:] = t / n
        p[0] += 1.0 - t
    else:
        if support is not None:
            m = as_int(support, "support")
        else:
            m = int(rng.integers(1, n + 1)) if family is StateFamily.UNIFORM else n
        if not (1 <= m <= n):
            raise InvalidSupport(f"support {m} outside [1, {n}]")
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
    dist = ProbDist(p)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    amps = signs * np.sqrt(p)
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
    family = StateFamily(family)
    pairing = SweepPairing(pairing)
    shots = as_int(shots, "shots", minimum=1)
    repetitions = as_int(repetitions, "repetitions", minimum=2)
    records = []
    for j, level in enumerate(levels):
        # the interpolated family is swept by t, every other family by support size
        shape = {"t": float(level)} if family is StateFamily.INTERPOLATED else {"support": level}
        psi, dist = generate_state(family, dim, derive_seed(seed, j), **shape)
        rep = entropy(dist)
        rng = job_rng(derive_seed(seed, j, 1))
        if pairing is SweepPairing.RESIGNED:
            # signs built in place: malloc hands a whole-matrix temporary freed
            # at the top of the heap back to the OS, and the next level faults
            # it in again (about 750 page faults per 16 levels of 500 x 64)
            taus = rng.integers(0, 2, size=(repetitions, dim))
            taus *= 2
            taus -= 1
            mus = taus @ dist.p  # <psi| V_b |psi> = sum_i p_i tau_bi
        else:
            phi, _ = generate_state(family, dim, derive_seed(seed, j, 2), **shape)
            mu = float(np.dot(psi.amplitudes, phi.amplitudes))
            mus = np.full(repetitions, mu)
        p0 = np.clip((1.0 + mus) / 2.0, 0.0, 1.0)
        counts = rng.binomial(shots, p0)
        z = 2.0 * counts / shots - 1.0
        records.append(
            SweepRecord(
                family=family.value,
                pairing=pairing.value,
                dim=dim,
                support=int(np.count_nonzero(dist.p)),
                level=float(level),
                entropy_nats=rep.shannon_nats,
                entropy_bits=rep.shannon_bits,
                purity=rep.purity,
                empirical_variance=float(np.mean((z - mus) ** 2)),
                overlap_variance=float(np.var(mus, ddof=1)),
                total_variance=float(np.var(z, ddof=1)),
                expected_shot_variance=float((1.0 - np.mean(mus**2)) / shots),
                theoretical_ceiling=1.0 / shots,
                dividend_bound=dividend_bound(rep.shannon_nats, shots),
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
    # scipy.stats costs about 0.8 s to import; only this statistic needs it
    from scipy.stats import chi2

    return float(chi2.ppf(confidence, reps) / reps)


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
        raise TooFewPoints(f"need at least 3 points, got {m}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgument("xs and ys must be finite")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc**2)))
    sy = float(np.sqrt(np.sum(yc**2)))
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")
    r = float(np.dot(xc, yc) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    nu = m - 2
    denom = max(1.0 - r * r, 0.0)
    if denom == 0.0:
        p = 0.0
    else:
        t2 = r * r * nu / denom
        # scipy.special costs about 0.3 s to import; only this p-value needs it
        from scipy.special import betainc

        p = float(betainc(nu / 2.0, 0.5, nu / (nu + t2)))
    p = min(1.0, max(p, float(np.finfo(np.float64).tiny)))
    return CorrelationStats(r=r, p_value=p, sample_count=m)


def _isotonic_decreasing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares non-increasing fit at the sample points (pool-adjacent-
    violators on the negated series)."""
    blocks: list[list] = []  # [mean, weight, count]
    for v in -y:
        blocks.append([v, 1.0, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            w = w1 + w2
            blocks.append([(v1 * w1 + v2 * w2) / w, w, c1 + c2])
    fit = np.empty_like(y)
    pos = 0
    for v, _, c in blocks:
        fit[pos : pos + c] = -v
        pos += c
    return fit


def _sweep_points(sweep):
    pairs = ((r.entropy_nats, r.total_variance) if isinstance(r, SweepRecord) else r for r in sweep)
    pts = sorted((float(h), float(v)) for h, v in pairs)
    x, y = np.array(pts, dtype=np.float64).reshape(-1, 2).T
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
        raise InsufficientOverlap("each sweep needs at least two entropy levels")
    lo = max(xa.min(), xb.min())
    hi = min(xa.max(), xb.max())
    if not (hi > lo):
        raise InsufficientOverlap(f"no shared entropy interval ({lo}, {hi})")
    fa = _isotonic_decreasing(xa, ya)
    fb = _isotonic_decreasing(xb, yb)
    # the dense grid stays: on the breakpoints alone, a difference that is zero
    # exactly at a breakpoint would be interpolated across two pieces
    grid = np.union1d(np.linspace(lo, hi, 2049), np.concatenate([xa, xb]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    diff = np.interp(grid, xa, fa) - np.interp(grid, xb, fb)
    scale = max(np.abs(ya).max(), np.abs(yb).max(), 1e-300)
    sign = np.sign(np.where(np.abs(diff) <= 1e-12 * scale, 0.0, diff))
    nonzero = np.flatnonzero(sign)
    changes = np.flatnonzero(sign[nonzero[1:]] != sign[nonzero[:-1]])
    if not changes.size:
        raise NoCrossing("fitted variance curves do not change order in the overlap")
    i0, i1 = nonzero[changes[-1]], nonzero[changes[-1] + 1]
    d0, d1 = diff[i0], diff[i1]
    frac = d0 / (d0 - d1) if d1 != d0 else 0.5
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
        dist = ProbDist(np.asarray(dist, dtype=np.float64))
    trials = as_int(trials, "trials", minimum=2)
    rng = job_rng(seed)
    signs = rng.integers(0, 2, size=(trials, dist.n)) * 2 - 1
    mus = signs @ dist.p
    sq = mus**2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(trials))
    bound = float(np.exp(-shannon_entropy(dist.p)))
    return ConcentrationVerdict(
        estimate=est,
        lower_bound=bound,
        stderr=se,
        trials=trials,
        passed=est >= bound - 3.0 * se,
    )


# (header, SweepRecord field) for each sweep.csv column, in file order
SWEEP_CSV_COLUMNS = (
    ("family", "family"),
    ("n", "dim"),
    ("H_nats", "entropy_nats"),
    ("H_bits", "entropy_bits"),
    ("purity", "purity"),
    ("empirical_variance", "empirical_variance"),
    ("dividend_bound", "dividend_bound"),
    ("shots", "shots"),
    ("repetitions", "repetitions"),
    ("support", "support"),
    ("overlap_variance", "overlap_variance"),
    ("total_variance", "total_variance"),
    ("pairing", "pairing"),
)


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    """One line per record; floats as repr, so they read back exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(header for header, _ in SWEEP_CSV_COLUMNS) + "\n")
        for r in records:
            values = (getattr(r, name) for _, name in SWEEP_CSV_COLUMNS)
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n")


def correlation_summary(sweeps_by_family: dict, crossings: list | None = None) -> dict:
    """Per-family correlation of entropy against estimator dispersion, plus
    any detected crossing points, as a JSON-ready dict."""
    out: dict = {"families": {}, "crossing_points": []}
    for name, records in sweeps_by_family.items():
        stats = pearson(
            [r.entropy_nats for r in records],
            [r.total_variance for r in records],
        )
        out["families"][name] = {
            "r": stats.r,
            "p_value": stats.p_value,
            "sample_count": stats.sample_count,
        }
    for item in crossings or []:
        pair, cp = item
        out["crossing_points"].append(
            {
                "families": list(pair),
                "h_nats": cp.h_nats,
                "h_bits": cp.h_bits,
                "slope_a": cp.slope_a,
                "slope_b": cp.slope_b,
            }
        )
    return out


def write_correlation_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
