"""Execution layout planning for buffers of Hadamard-test jobs.

An N x N matrix product needs N^2 inner-product jobs. Each job occupies
ceil(log2 dim) data qubits plus one ancilla. The planner maps the job buffer
onto clock cycles under a register-width budget:

  horizontal  one job per cycle (N^2 cycles, minimal width)
  balanced    one row of N jobs per cycle (N cycles)
  vertical    every job in a single cycle (maximal width)
  batch       greedy packing: as many jobs per cycle as the budget holds

Any layout whose cycle width would exceed the budget is split greedily into
budget-sized chunks and flagged as degraded. Because job seeds are derived
from job identity, every layout yields bit-identical results; the plan only
changes the accounting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetTooSmall, InvalidEpsilon, PlanJobMismatch
from .hadamard import HadamardJob, sample_hadamard


class StackingPattern(str, Enum):
    HORIZONTAL = "horizontal"
    BALANCED = "balanced"
    VERTICAL = "vertical"
    BATCH = "batch"


@dataclass(frozen=True)
class ResourceModel:
    """Qubit accounting for one job buffer."""

    dim: int
    total_jobs: int

    @property
    def data_qubits(self) -> int:
        # A state of dim d needs ceil(log2 d) qubits; one qubit minimum.
        return max(1, math.ceil(math.log2(self.dim)))

    @property
    def qubits_per_test(self) -> int:
        return self.data_qubits + 1  # one ancilla per test


@dataclass(frozen=True)
class StackingPlan:
    pattern: StackingPattern
    resources: ResourceModel
    cycles: tuple
    degraded: bool

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def width(self) -> int:
        return max((len(g) for g in self.cycles), default=0) * self.resources.qubits_per_test

    @property
    def total_jobs(self) -> int:
        return sum(len(g) for g in self.cycles)


def _split(group: list, cap: int) -> list:
    return [group[k : k + cap] for k in range(0, len(group), cap)]


def _layout(job_ids: list, row_len: int, pattern: StackingPattern, cap: int):
    """Base cycle groups for a pattern, then greedy budget splitting."""
    if pattern is StackingPattern.HORIZONTAL:
        base = [[j] for j in job_ids]
    elif pattern is StackingPattern.BALANCED:
        base = _split(job_ids, max(1, row_len))
    elif pattern is StackingPattern.VERTICAL:
        base = [list(job_ids)] if job_ids else []
    else:  # BATCH packs to capacity by design
        base = _split(list(job_ids), cap)
    degraded = False
    cycles = []
    for group in base:
        if len(group) > cap:
            if pattern is not StackingPattern.BATCH:
                degraded = True
            cycles.extend(_split(group, cap))
        else:
            cycles.append(group)
    return cycles, degraded


def plan_jobs(
    num_jobs: int,
    row_len: int,
    dim: int,
    pattern: StackingPattern,
    qubit_budget: int,
) -> StackingPlan:
    """Plan an arbitrary job buffer; row_len defines the balanced grouping."""
    resources = ResourceModel(dim=dim, total_jobs=num_jobs)
    q = resources.qubits_per_test
    if qubit_budget < q:
        raise BudgetTooSmall(
            f"budget {qubit_budget} < {q} qubits needed for a single test"
        )
    cap = qubit_budget // q
    cycles, degraded = _layout(list(range(num_jobs)), row_len, pattern, cap)
    return StackingPlan(
        pattern=pattern,
        resources=resources,
        cycles=tuple(tuple(g) for g in cycles),
        degraded=degraded,
    )


def plan(n: int, dim: int, pattern: StackingPattern, qubit_budget: int) -> StackingPlan:
    """Plan the N^2 jobs of an N x N matrix product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return plan_jobs(n * n, n, dim, pattern, qubit_budget)


def complexity_report(p: StackingPlan, epsilon: float) -> dict:
    """Cost accounting: shot repetitions per job, sequential shot total,
    and the classical preparation floor. Asserted against formulas, not
    wall-clock."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    shots_per_job = math.ceil(1.0 / epsilon**2)
    n_equiv = math.isqrt(p.resources.total_jobs)
    return {
        "pattern": p.pattern.value,
        "cycle_count": p.cycle_count,
        "width": p.width,
        "qubits_per_test": p.resources.qubits_per_test,
        "shots_per_job": shots_per_job,
        "total_sequential_shots": p.cycle_count * shots_per_job,
        "classical_prep_ops": n_equiv * n_equiv,
        "degraded": p.degraded,
    }


def execute_plan(p: StackingPlan, jobs: list) -> list:
    """Run every cycle group in order; results land in job-id order.

    Seeds are job-derived, so the result buffer is identical to running
    each job alone.
    """
    if len(jobs) != p.total_jobs:
        raise PlanJobMismatch(f"plan holds {p.total_jobs} jobs, buffer has {len(jobs)}")
    results: list = [None] * len(jobs)
    for group in p.cycles:
        for job_id in group:
            job = jobs[job_id]
            if not isinstance(job, HadamardJob):
                raise PlanJobMismatch(f"buffer entry {job_id} is not a HadamardJob")
            results[job_id] = sample_hadamard(job)
    for job_id, res in enumerate(results):
        if res is None:
            raise PlanJobMismatch(f"job {job_id} missing from plan cycles")
    return results


def plan_to_json(p: StackingPlan) -> str:
    return json.dumps(
        {
            "pattern": p.pattern.value,
            "dim": p.resources.dim,
            "qubits_per_test": p.resources.qubits_per_test,
            "total_jobs": p.total_jobs,
            "cycle_count": p.cycle_count,
            "width": p.width,
            "degraded": p.degraded,
            "cycles": [list(g) for g in p.cycles],
        },
        indent=2,
    )
