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

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .errors import InvalidArgument, PlanJobMismatch, as_enum, as_int
from .hadamard import sample_hadamard


class StackingPattern(str, Enum):
    HORIZONTAL = "horizontal"
    BALANCED = "balanced"
    VERTICAL = "vertical"
    BATCH = "batch"


def qubits_per_test(dim: int) -> int:
    """ceil(log2 dim) data qubits (one minimum) plus one ancilla."""
    return max(1, math.ceil(math.log2(dim))) + 1


@dataclass(frozen=True)
class StackingPlan:
    """A layout in closed form: job ids 0..total_jobs-1, each a test on states
    of dimension `dim`, run in order, in base groups of `group` consecutive
    jobs, each split into cycles of at most `cap` jobs."""

    pattern: StackingPattern
    dim: int
    total_jobs: int
    group: int
    cap: int

    @property
    def qubits_per_test(self) -> int:
        return qubits_per_test(self.dim)

    @property
    def cycle_count(self) -> int:
        full, rest = divmod(self.total_jobs, self.group)
        return full * -(-self.group // self.cap) + -(-rest // self.cap)

    @property
    def width(self) -> int:
        return min(self.group, self.total_jobs, self.cap) * self.qubits_per_test

    @property
    def degraded(self) -> bool:
        # BATCH packs to capacity by design; any other layout split by the budget is degraded
        return self.pattern is not StackingPattern.BATCH and min(self.group, self.total_jobs) > self.cap

    @property
    def cycles(self):
        """The job ids of each cycle, in order, as ranges."""
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
    """Plan an arbitrary job buffer; row_len defines the balanced grouping.
    pattern is a StackingPattern member or its name."""
    num_jobs = as_int(num_jobs, "num_jobs", minimum=0)
    row_len = as_int(row_len, "row_len", minimum=0)
    qubit_budget = as_int(qubit_budget, "qubit_budget")
    dim = as_int(dim, "dim", minimum=1)
    pattern = as_enum(StackingPattern, pattern, "pattern")
    q = qubits_per_test(dim)
    if qubit_budget < q:
        raise InvalidArgument(
            f"budget {qubit_budget} < {q} qubits needed for a single test"
        )
    cap = qubit_budget // q
    group = {StackingPattern.HORIZONTAL: 1, StackingPattern.BALANCED: max(1, row_len),
             StackingPattern.VERTICAL: max(1, num_jobs), StackingPattern.BATCH: cap}[pattern]
    return StackingPlan(pattern=pattern, dim=dim, total_jobs=num_jobs, group=group, cap=cap)


def plan(n: int, dim: int, pattern: StackingPattern, qubit_budget: int) -> StackingPlan:
    """Plan the N^2 jobs of an N x N matrix product."""
    n = as_int(n, "n", minimum=1)
    return plan_jobs(n * n, n, dim, pattern, qubit_budget)


def complexity_report(p: StackingPlan, epsilon: float) -> dict:
    """Cost accounting: shot repetitions per job, sequential shot total,
    and the classical preparation floor. Asserted against formulas, not
    wall-clock."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgument(f"epsilon must be in (0, 1), got {epsilon}")
    shots_per_job = math.ceil(1.0 / epsilon**2)
    n_equiv = math.isqrt(p.total_jobs)
    return {
        "pattern": p.pattern.value,
        "cycle_count": p.cycle_count,
        "width": p.width,
        "qubits_per_test": p.qubits_per_test,
        "shots_per_job": shots_per_job,
        "total_sequential_shots": p.cycle_count * shots_per_job,
        "classical_prep_ops": n_equiv * n_equiv,
        "degraded": p.degraded,
    }


def execute_plan(p: StackingPlan, psis: list, phis: list, shots: int, seeds: list) -> list:
    """Run job k, sample_hadamard(psis[k], phis[k], shots, seeds[k]), in id
    order, the order every layout keeps; seeds are job-derived, so the buffer
    equals running each job alone."""
    if not len(psis) == len(phis) == len(seeds) == p.total_jobs:
        raise PlanJobMismatch(f"plan holds {p.total_jobs} jobs; psis, phis and seeds hold "
                              f"{len(psis)}, {len(phis)} and {len(seeds)}")
    return list(map(sample_hadamard, psis, phis, repeat(shots), seeds))

