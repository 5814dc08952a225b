"""Execution layout planning for buffers of Hadamard-test jobs.

An N x N matrix product needs N^2 inner-product jobs. Each job occupies
ceil(log2 dim) data qubits plus one ancilla. The planner maps the job buffer
onto clock cycles under a register-width budget:

  horizontal  one job per cycle (N^2 cycles, minimal width)
  balanced    one row of N jobs per cycle (N cycles)
  vertical    every job in a single cycle (maximal width)
  batch       greedy packing: as many jobs per cycle as the budget holds

Any layout whose cycle width would exceed the budget is split greedily into
budget-sized chunks and flagged as degraded. Every layout runs the job ids in
order, so a plan is closed-form: its base group size and per-cycle cap fix
every cycle. Because job seeds are derived from job identity, every layout
yields bit-identical results; the plan only changes the accounting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetTooSmall, InvalidEpsilon, PlanJobMismatch, as_int
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
    """A layout in closed form: job ids 0..total_jobs-1 run in order, in base
    groups of `group` consecutive jobs, each split into cycles of at most
    `cap` jobs."""

    pattern: StackingPattern
    resources: ResourceModel
    group: int
    cap: int

    @property
    def total_jobs(self) -> int:
        return self.resources.total_jobs

    @property
    def cycle_count(self) -> int:
        full, rest = divmod(self.total_jobs, self.group)
        return full * -(-self.group // self.cap) + -(-rest // self.cap)

    @property
    def width(self) -> int:
        return min(self.group, self.total_jobs, self.cap) * self.resources.qubits_per_test

    @property
    def degraded(self) -> bool:
        # BATCH packs to capacity by design; any other layout split by the budget is degraded
        return self.pattern is not StackingPattern.BATCH and min(self.group, self.total_jobs) > self.cap

    @property
    def cycles(self):
        """The job ids of each cycle, in order, as ranges (for plan_to_json)."""
        n, group, cap = self.total_jobs, self.group, self.cap
        for base in range(0, n, group):
            end = min(base + group, n)
            for start in range(base, end, cap):
                yield range(start, min(start + cap, end))


def plan_jobs(
    num_jobs: int,
    row_len: int,
    dim: int,
    pattern: StackingPattern,
    qubit_budget: int,
) -> StackingPlan:
    """Plan an arbitrary job buffer; row_len defines the balanced grouping."""
    num_jobs = as_int(num_jobs, "num_jobs", minimum=0)
    row_len = as_int(row_len, "row_len", minimum=0)
    qubit_budget = as_int(qubit_budget, "qubit_budget")
    resources = ResourceModel(dim=as_int(dim, "dim", minimum=1), total_jobs=num_jobs)
    q = resources.qubits_per_test
    if qubit_budget < q:
        raise BudgetTooSmall(
            f"budget {qubit_budget} < {q} qubits needed for a single test"
        )
    cap = qubit_budget // q
    group = {StackingPattern.HORIZONTAL: 1, StackingPattern.BALANCED: max(1, row_len),
             StackingPattern.VERTICAL: max(1, num_jobs), StackingPattern.BATCH: cap}[pattern]
    return StackingPlan(pattern=pattern, resources=resources, group=group, cap=cap)


def plan(n: int, dim: int, pattern: StackingPattern, qubit_budget: int) -> StackingPlan:
    """Plan the N^2 jobs of an N x N matrix product."""
    n = as_int(n, "n", minimum=1)
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
    """Run the jobs in id order, the order every layout keeps; seeds are
    job-derived, so the buffer equals running each job alone."""
    if len(jobs) != p.total_jobs:
        raise PlanJobMismatch(f"plan holds {p.total_jobs} jobs, buffer has {len(jobs)}")
    for job_id, job in enumerate(jobs):
        if not isinstance(job, HadamardJob):
            raise PlanJobMismatch(f"buffer entry {job_id} is not a HadamardJob")
    return [sample_hadamard(job) for job in jobs]


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
