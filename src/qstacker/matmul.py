"""Three-stage matrix multiplication through Hadamard-test estimation.

matmul is _prepare, then _sample (exact mode skips it), then _reconstruct:

  _prepare      returns the validated float64 operands, the row norms of A,
                the column norms of B and, in exact mode, the overlaps
                M = clip(A_hat @ B_hat); exact mode takes z_hat = M, giving
                the classical product up to rounding.
  _sample       returns (z_hat, true_overlap, plan): one Hadamard-test job
                per live element, whose seed is derived from (master seed,
                i, j), so results are independent of the layout.
  _reconstruct  returns the MatMulResult with C_ij = ||A_i|| ||B_j|| z_hat_ij;
                no other code builds one.

Elements whose row or column norm is zero are exact zeros with no job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, as_int
from .hadamard import HadamardJob, analytic_overlap, estimate
from .seeding import derive_seed
from .stacking import StackingPattern, StackingPlan, execute_plan, plan_jobs
from .vectors import _norm, as_matrix, prepare_all

UNBOUNDED_BUDGET = 1 << 40  # wide enough that no realistic plan ever splits


def _budget(cfg) -> int:
    return UNBOUNDED_BUDGET if cfg.qubit_budget is None else cfg.qubit_budget


@dataclass(frozen=True)
class MatMulConfig:
    shots: int = 16384
    pattern: StackingPattern = StackingPattern.BATCH
    seed: int = 0
    exact: bool = False
    qubit_budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "shots", as_int(self.shots, "shots", minimum=1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.qubit_budget is not None:
            object.__setattr__(self, "qubit_budget", as_int(self.qubit_budget, "qubit_budget"))


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
    norm_products: np.ndarray = field(repr=False)


def _prepare(a, b, exact: bool):
    """(am, bm, a_norms, b_norms, M), with M None unless exact."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ShapeMismatch(f"cannot multiply {am.shape} by {bm.shape}")
    a_norms = _norm(am, axis=1)
    b_norms = _norm(bm, axis=0)
    if not exact:
        return am, bm, a_norms, b_norms, None
    # a row or column of zero norm becomes zero, so its overlaps are exact zeros
    a_hat = np.divide(am, a_norms[:, None], out=np.zeros_like(am), where=a_norms[:, None] != 0.0)
    b_hat = np.divide(bm, b_norms, out=np.zeros_like(bm), where=b_norms != 0.0)
    return am, bm, a_norms, b_norms, np.clip(a_hat @ b_hat, -1.0, 1.0)


def _sample(am, bm, a_norms, b_norms, cfg: MatMulConfig):
    """(z_hat, true_overlap, plan), estimated one job per live element."""
    rows, cols = am.shape[0], bm.shape[1]
    row_states, col_states = prepare_all(am, bm)
    seeds = derive_seed(
        cfg.seed, np.arange(rows, dtype=np.uint64)[:, None], np.arange(cols, dtype=np.uint64)
    ).tolist()
    live = [
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if a_norms[i] != 0.0 and b_norms[j] != 0.0
    ]
    jobs = [
        HadamardJob(
            psi=row_states[i],
            phi=col_states[j],
            shots=cfg.shots,
            seed=seeds[i][j],
        )
        for i, j in live
    ]
    the_plan = plan_jobs(len(jobs), cols, am.shape[1], cfg.pattern, _budget(cfg))
    results = execute_plan(the_plan, jobs)
    z_hat = np.zeros((rows, cols))
    true_overlap = np.zeros((rows, cols))
    for (i, j), res, job in zip(live, results, jobs):
        mu = analytic_overlap(job.psi, job.phi)
        z_hat[i, j] = estimate(res, true_overlap=mu).z_hat
        true_overlap[i, j] = mu
    return z_hat, true_overlap, the_plan


def _reconstruct(z_hat, true_overlap, the_plan, a_norms, b_norms, cfg: MatMulConfig) -> MatMulResult:
    """The MatMulResult with C_ij = ||A_i|| * ||B_j|| * z_hat_ij."""
    norm_products = np.outer(a_norms, b_norms)
    return MatMulResult(
        c=norm_products * z_hat,
        z_hat=z_hat,
        true_overlap=true_overlap,
        plan_used=the_plan,
        cache_hits=0,
        cache_misses=len(a_norms) + len(b_norms),
        job_count=the_plan.total_jobs,
        shots=cfg.shots,
        exact=cfg.exact,
        norm_products=norm_products,
    )


def matmul(a, b, cfg: MatMulConfig) -> MatMulResult:
    """C = A @ B, estimated element by element (exact overlaps if cfg.exact)."""
    am, bm, a_norms, b_norms, mu = _prepare(a, b, cfg.exact)
    if cfg.exact:
        the_plan = plan_jobs(0, bm.shape[1], am.shape[1], cfg.pattern, _budget(cfg))
        return _reconstruct(mu, mu, the_plan, a_norms, b_norms, cfg)
    return _reconstruct(*_sample(am, bm, a_norms, b_norms, cfg), a_norms, b_norms, cfg)


def error_budget(norm_product, shots: int, mu=0.0):
    """One-sigma standard error of reconstructed elements, elementwise.

    norm_product * sqrt((1 - mu^2)/S) for scalars or arrays; the default
    mu = 0 gives the ceiling norm_product/sqrt(S) for an unknown overlap.
    """
    shots = as_int(shots, "shots", minimum=1)
    return np.abs(norm_product) * np.sqrt(np.maximum(0.0, 1.0 - mu * mu) / shots)


def write_result_csv(result: MatMulResult, path) -> None:
    """Per-element dump: i, j, z_hat, c_ij, stderr (plug-in error_budget)."""
    z = result.z_hat
    se = np.zeros_like(z) if result.exact else error_budget(result.norm_products, result.shots, mu=z)
    with open(path, "w") as fh:
        fh.write("i,j,z_hat,c_ij,stderr\n")
        for i, row in enumerate(zip(z.tolist(), result.c.tolist(), se.tolist())):
            for j, (zv, cv, sv) in enumerate(zip(*row)):
                fh.write(f"{i},{j},{zv!r},{cv!r},{sv!r}\n")


def summary_dict(result: MatMulResult, classical: np.ndarray | None = None) -> dict:
    out = {
        "rows": int(result.c.shape[0]),
        "cols": int(result.c.shape[1]),
        "pattern": result.plan_used.pattern.value,
        "shots": result.shots,
        "exact": result.exact,
        "job_count": result.job_count,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "plan_cycles": result.plan_used.cycle_count,
        "plan_width": result.plan_used.width,
        "plan_degraded": result.plan_used.degraded,
    }
    if classical is not None:
        err = np.abs(result.c - classical)
        out["max_abs_error"] = float(err.max()) if err.size else 0.0
        out["mean_abs_error"] = float(err.mean()) if err.size else 0.0
    return out


def write_summary_json(result: MatMulResult, path, classical: np.ndarray | None = None) -> dict:
    """Write summary_dict(result, classical) as JSON and return the dict."""
    summary = summary_dict(result, classical)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
