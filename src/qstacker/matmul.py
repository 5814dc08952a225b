"""Three-stage matrix multiplication through Hadamard-test estimation.

matmul is _prepare, then _sample (exact mode skips it), then _reconstruct:

  _prepare      validates both operands and normalizes them in one pass over
                A stacked on B transposed: the unit rows of each, norms as
                (mantissa, exponent).
                Exact mode takes z_hat = M = clip(A_hat @ B_hat) from them,
                giving the classical product up to rounding.
  _sample       returns (z_hat, true_overlap, plan): one Hadamard-test job
                per live element, whose seed is derived from (master seed,
                i, j), so results are independent of the layout.
  _reconstruct  returns the MatMulResult with C_ij = ||A_i|| ||B_j|| z_hat_ij,
                applying the norms' exponents last; no other code builds one.

Elements whose row or column norm is zero are exact zeros with no job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ShapeMismatch, as_enum, as_int
from .hadamard import analytic_overlap, estimate
from .seeding import MAX_SHOTS, derive_seed
from .stacking import StackingPattern, StackingPlan, execute_plan, plan_jobs
from .vectors import _unit_rows, as_matrix, prepare_all

UNBOUNDED_BUDGET = 1 << 40  # wide enough that no realistic plan ever splits


@dataclass(frozen=True)
class MatMulConfig:
    """Engine options, normalised when built: pattern becomes a StackingPattern
    member (its name is accepted) and a None budget becomes UNBOUNDED_BUDGET."""

    shots: int = 16384
    pattern: StackingPattern = StackingPattern.BATCH
    seed: int = 0
    exact: bool = False
    qubit_budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "shots", as_int(self.shots, "shots", minimum=1, maximum=MAX_SHOTS))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        object.__setattr__(self, "pattern", as_enum(StackingPattern, self.pattern, "pattern"))
        budget = UNBOUNDED_BUDGET if self.qubit_budget is None else self.qubit_budget
        object.__setattr__(self, "qubit_budget", as_int(budget, "qubit_budget"))


@dataclass
class MatMulResult:
    c: np.ndarray
    z_hat: np.ndarray  # overlap estimate per element, 0.0 where a norm is zero
    true_overlap: np.ndarray  # exact overlap per element (z_hat itself in exact mode)
    plan_used: StackingPlan
    cache_hits: int  # always 0: every product encodes its rows and columns afresh
    cache_misses: int  # encodes, rows + cols
    job_count: int
    shots: int
    exact: bool
    # ||A_i|| * ||B_j|| as (mantissa, exponent) arrays, finite past float64's range
    norm_parts: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @property
    def norm_products(self) -> np.ndarray:
        """||A_i|| * ||B_j||; past float64's range it reads inf, with no warning."""
        with np.errstate(over="ignore"):
            return np.ldexp(*self.norm_parts)


def _prepare(a, b):
    """(A's rows, B's columns), each a vectors._unit_rows triple (unit, mant, exp),
    from one _unit_rows pass over A stacked on B transposed, split at len(A)."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ShapeMismatch(f"cannot multiply {am.shape} by {bm.shape}")
    unit, mant, exp = _unit_rows(np.concatenate((am, bm.T)))
    m = len(am)
    return (unit[:m], mant[:m], exp[:m]), (unit[m:], mant[m:], exp[m:])


def _sample(a_rows, b_cols, cfg: MatMulConfig):
    """(z_hat, true_overlap, plan), estimated one job per live element."""
    (_, a_mant, _), (_, b_mant, _) = a_rows, b_cols
    z_hat = np.zeros((len(a_mant), len(b_mant)))
    true_overlap = np.zeros(z_hat.shape)
    row_states, col_states = prepare_all(a_rows, b_cols)
    live = (a_mant != 0.0)[:, None] & (b_mant != 0.0)
    live_i, live_j = np.nonzero(live)  # job ids in row-major order
    seeds = derive_seed(cfg.seed, live_i, live_j).tolist()
    psis = list(map(row_states.__getitem__, live_i.tolist()))
    phis = list(map(col_states.__getitem__, live_j.tolist()))
    the_plan = plan_jobs(len(seeds), len(b_mant), a_rows[0].shape[1], cfg.pattern, cfg.qubit_budget)
    counts = execute_plan(the_plan, psis, phis, cfg.shots, seeds)
    z_hat[live] = estimate(np.array(counts, dtype=np.int64), cfg.shots)
    true_overlap[live] = np.fromiter(map(analytic_overlap, psis, phis), np.float64, len(seeds))
    return z_hat, true_overlap, the_plan


def _reconstruct(z_hat, true_overlap, the_plan, a_rows, b_cols, cfg: MatMulConfig) -> MatMulResult:
    """The MatMulResult with C_ij = ||A_i|| * ||B_j|| * z_hat_ij, whose norms'
    exponents apply last, so C is finite wherever the classical product is."""
    mant = a_rows[1][:, None] * b_cols[1]
    exp = a_rows[2][:, None] + b_cols[2]
    with np.errstate(over="ignore"):  # inf only where the classical product overflows too
        c = np.ldexp(mant * z_hat, exp)
    return MatMulResult(
        c=c,
        z_hat=z_hat,
        true_overlap=true_overlap,
        plan_used=the_plan,
        cache_hits=0,
        cache_misses=len(mant) + len(b_cols[1]),
        job_count=the_plan.total_jobs,
        shots=cfg.shots,
        exact=cfg.exact,
        norm_parts=(mant, exp),
    )


def matmul(a, b, cfg: MatMulConfig) -> MatMulResult:
    """C = A @ B, estimated element by element (exact overlaps if cfg.exact)."""
    a_rows, b_cols = _prepare(a, b)
    if cfg.exact:
        # B's own layout: a transposed operand can change the product's bits
        mu = a_rows[0] @ np.ascontiguousarray(b_cols[0].T)
        np.minimum(np.maximum(mu, -1.0, out=mu), 1.0, out=mu)  # np.clip's bits, without its dispatch
        the_plan = plan_jobs(0, len(b_cols[1]), a_rows[0].shape[1], cfg.pattern, cfg.qubit_budget)
        return _reconstruct(mu, mu, the_plan, a_rows, b_cols, cfg)
    return _reconstruct(*_sample(a_rows, b_cols, cfg), a_rows, b_cols, cfg)


def error_budget(norm_product, shots: int, mu=0.0):
    """One-sigma standard error of reconstructed elements, elementwise.

    norm_product * sqrt((1 - mu^2)/S) for scalars or arrays; the default
    mu = 0 gives the ceiling norm_product/sqrt(S) for an unknown overlap.
    """
    shots = as_int(shots, "shots", minimum=1)
    return np.abs(norm_product) * np.sqrt(np.maximum(0.0, 1.0 - mu * mu) / shots)

