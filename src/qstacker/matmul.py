"""Three-stage matrix multiplication through Hadamard-test estimation.

Stage 1 encodes the rows of A and columns of B once each and records their
Euclidean norms. Stage 2 dispatches one estimation job per output element
through a stacking plan; element (i, j) gets its own seed derived from
(master seed, i, j), all of them in one array call, so results are
independent of the layout. Stage 3 reconstructs
C_ij = ||A_i|| * ||B_j|| * z_hat_ij.

Elements whose row or column norm is zero are written as exact zeros with no
job dispatched. Exact mode skips the sampler: it normalizes A's rows and B's
columns and takes every overlap from one matrix product, giving the classical
product up to rounding; this is the oracle the training harness uses for
classical forward passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .hadamard import HadamardJob, analytic_overlap, estimate
from .seeding import derive_seed
from .stacking import StackingPattern, StackingPlan, execute_plan, plan_jobs
from .vectors import as_matrix, as_vector, col_norms, prepare_all, row_norms

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
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass
class MatMulResult:
    c: np.ndarray
    z_hat: np.ndarray  # overlap estimate per element, 0.0 where a norm is zero
    true_overlap: np.ndarray  # exact overlap per element (z_hat itself in exact mode)
    plan_used: StackingPlan
    cache_hits: int
    cache_misses: int
    job_count: int
    shots: int
    exact: bool
    norm_products: np.ndarray = field(repr=False, default=None)


def matmul(a, b, cfg: MatMulConfig) -> MatMulResult:
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ShapeMismatch(f"cannot multiply {am.shape} by {bm.shape}")
    rows, cols = am.shape[0], bm.shape[1]
    dim = am.shape[1]
    a_norms = row_norms(am)
    b_norms = col_norms(bm)
    norm_products = np.outer(a_norms, b_norms)

    if cfg.exact:
        # a row or column of zero norm becomes zero, so its overlaps are exact zeros
        a_hat = np.divide(am, a_norms[:, None], out=np.zeros_like(am), where=a_norms[:, None] != 0.0)
        b_hat = np.divide(bm, b_norms, out=np.zeros_like(bm), where=b_norms != 0.0)
        mu = np.clip(a_hat @ b_hat, -1.0, 1.0)
        return MatMulResult(
            c=norm_products * mu,
            z_hat=mu,
            true_overlap=mu,
            plan_used=plan_jobs(0, cols, dim, cfg.pattern, _budget(cfg)),
            cache_hits=0,
            cache_misses=rows + cols,
            job_count=0,
            shots=cfg.shots,
            exact=True,
            norm_products=norm_products,
        )

    cache = prepare_all(am, bm)
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
            psi=cache.get_row(am, i),
            phi=cache.get_col(bm, j),
            shots=cfg.shots,
            seed=seeds[i][j],
        )
        for i, j in live
    ]
    the_plan = plan_jobs(len(jobs), cols, dim, cfg.pattern, _budget(cfg))
    results = execute_plan(the_plan, jobs)
    z_hat = np.zeros((rows, cols))
    true_overlap = np.zeros((rows, cols))
    for (i, j), res, job in zip(live, results, jobs):
        mu = analytic_overlap(job.psi, job.phi)
        z_hat[i, j] = estimate(res, true_overlap=mu).z_hat
        true_overlap[i, j] = mu
    return MatMulResult(
        c=norm_products * z_hat,
        z_hat=z_hat,
        true_overlap=true_overlap,
        plan_used=the_plan,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        job_count=len(jobs),
        shots=cfg.shots,
        exact=False,
        norm_products=norm_products,
    )


def matvec(a, x, cfg: MatMulConfig) -> np.ndarray:
    """Matrix-vector product: the single-column special case of matmul."""
    xv = as_vector(x)
    return matmul(a, xv.reshape(-1, 1), cfg).c[:, 0]


def error_budget(norm_product: float, shots: int, mu: float | None = None) -> float:
    """One-sigma standard error of a reconstructed element.

    With the overlap unknown, returns the ceiling norm_product/sqrt(S);
    given mu, the exact norm_product * sqrt((1 - mu^2)/S).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if norm_product == 0.0:
        return 0.0
    if mu is None:
        return abs(norm_product) / math.sqrt(shots)
    return abs(norm_product) * math.sqrt(max(0.0, 1.0 - mu * mu) / shots)


def write_result_csv(result: MatMulResult, path) -> None:
    """Per-element dump: i, j, z_hat, c_ij, stderr (plug-in error_budget)."""
    z = result.z_hat
    if result.exact:
        se = np.zeros_like(z)
    else:
        se = np.abs(result.norm_products) * np.sqrt(
            np.maximum(0.0, 1.0 - z * z) / result.shots
        )
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


def write_summary_json(result: MatMulResult, path, classical: np.ndarray | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(summary_dict(result, classical), fh, indent=2)
        fh.write("\n")
