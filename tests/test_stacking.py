import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstacker import (
    StackingPattern,
    complexity_report,
    derive_seed,
    encode,
    execute_plan,
    plan,
    plan_jobs,
    sample_hadamard,
)
from qstacker.cli import plan_to_json
from qstacker.errors import InvalidArgument, PlanJobMismatch
from qstacker.stacking import qubits_per_test

P = StackingPattern


class TestPlanShapes:
    def test_vertical_full_width(self):
        # N=4, dim=4: 2 data qubits + ancilla = 3 per test, 16 jobs
        p = plan(4, 4, P.VERTICAL, 48)
        assert p.cycle_count == 1
        assert p.width == 48
        assert not p.degraded

    def test_horizontal_minimal_budget(self):
        p = plan(4, 4, P.HORIZONTAL, 3)
        assert p.cycle_count == 16
        assert p.width == 3
        assert not p.degraded

    def test_balanced_rows(self):
        p = plan(4, 4, P.BALANCED, 12)
        assert p.cycle_count == 4
        assert all(len(g) == 4 for g in p.cycles)
        assert p.width == 12

    def test_vertical_budget_split(self):
        p = plan(4, 4, P.VERTICAL, 24)
        assert p.cycle_count == 2
        assert [len(g) for g in p.cycles] == [8, 8]
        assert p.degraded
        assert p.width == 24

    def test_batch_packs_to_capacity_without_degraded_flag(self):
        p = plan(4, 4, P.BATCH, 24)
        assert [len(g) for g in p.cycles] == [8, 8]
        assert not p.degraded

    def test_budget_too_small(self):
        with pytest.raises(InvalidArgument, match="budget 2 < 3 qubits needed for a single test"):
            plan(4, 4, P.VERTICAL, 2)

    def test_cycle_count_formulas(self):
        for n in range(1, 33):
            assert plan(n, 8, P.HORIZONTAL, 10**9).cycle_count == n * n
            assert plan(n, 8, P.BALANCED, 10**9).cycle_count == n
            assert plan(n, 8, P.VERTICAL, 10**9).cycle_count == 1

    def test_width_monotonicity(self):
        for n in (2, 4, 8, 16):
            h = plan(n, 8, P.HORIZONTAL, 10**9).width
            b = plan(n, 8, P.BALANCED, 10**9).width
            v = plan(n, 8, P.VERTICAL, 10**9).width
            assert v >= b >= h

    def test_conservation(self):
        for pattern in P:
            p = plan(5, 8, pattern, 40)
            ids = sorted(j for g in p.cycles for j in g)
            assert ids == list(range(25))

    def test_split_groups_never_exceed_budget(self):
        # 5 jobs of 3 qubits under budget 8: capacity 2 per cycle
        p = plan_jobs(5, 5, 4, P.VERTICAL, 8)
        assert p.width <= 8
        assert [len(g) for g in p.cycles] == [2, 2, 1]
        assert p.degraded

    def test_qubits_per_test_floor(self):
        p = plan_jobs(1, 1, 2, P.HORIZONTAL, 2)
        assert p.qubits_per_test == 2

    def test_non_power_of_two_dim_padded(self):
        # dim 5 pads to 8 -> 3 data qubits + ancilla
        p = plan(2, 5, P.VERTICAL, 16)
        assert p.qubits_per_test == 4
        assert p.width == 16


class TestComplexityReport:
    def test_vertical_single_cycle(self):
        rep = complexity_report(plan(6, 8, P.VERTICAL, 10**9), 0.05)
        assert rep["cycle_count"] == 1
        assert rep["total_sequential_shots"] == 400

    def test_horizontal_n8(self):
        rep = complexity_report(plan(8, 8, P.HORIZONTAL, 10**9), 0.5)
        assert rep["cycle_count"] == 64

    def test_balanced_n8_eps_point_one(self):
        rep = complexity_report(plan(8, 8, P.BALANCED, 10**9), 0.1)
        assert rep["total_sequential_shots"] == 8 * 100
        assert rep["classical_prep_ops"] == 64

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidArgument, match=r"epsilon must be in \(0, 1\), got 1.5"):
            complexity_report(plan(2, 4, P.VERTICAL, 100), 1.5)


def make_jobs(n, dim, seed):
    """(psis, phis, seeds) of an n x n buffer of jobs on random states."""
    rng = np.random.default_rng(seed)
    psis, phis, seeds = [], [], []
    for i in range(n):
        for j in range(n):
            psis.append(encode(rng.normal(size=dim)))
            phis.append(encode(rng.normal(size=dim)))
            seeds.append(derive_seed(seed, i, j))
    return psis, phis, seeds


class TestExecutePlan:
    def test_empty_buffer(self):
        p = plan_jobs(0, 1, 4, P.VERTICAL, 100)
        assert execute_plan(p, [], [], 1024, []) == []

    def test_results_equal_standalone_calls(self):
        psis, phis, seeds = make_jobs(4, 4, seed=31)
        p = plan(4, 4, P.BALANCED, 10**9)
        results = execute_plan(p, psis, phis, 1024, seeds)
        standalone = [sample_hadamard(psi, phi, 1024, s) for psi, phi, s in zip(psis, phis, seeds)]
        assert results == standalone

    def test_pattern_equivalence(self):
        psis, phis, seeds = make_jobs(3, 8, seed=32)
        buffers = []
        for pattern in P:
            p = plan(3, 8, pattern, 16)
            buffers.append(execute_plan(p, psis, phis, 1024, seeds))
        assert all(buf == buffers[0] for buf in buffers[1:])

    def test_job_count_mismatch(self):
        psis, phis, seeds = make_jobs(2, 4, seed=34)
        p = plan(3, 4, P.VERTICAL, 10**9)
        with pytest.raises(PlanJobMismatch, match="plan holds 9 jobs; psis, phis and seeds hold 4, 4 and 4"):
            execute_plan(p, psis, phis, 1024, seeds)

    @pytest.mark.parametrize("short", [0, 1, 2], ids=["psis", "phis", "seeds"])
    def test_one_short_list_is_a_mismatch(self, short):
        jobs = list(make_jobs(2, 4, seed=35))
        jobs[short] = jobs[short][:-1]
        p = plan(2, 4, P.VERTICAL, 10**9)
        with pytest.raises(PlanJobMismatch, match="plan holds 4 jobs"):
            execute_plan(p, jobs[0], jobs[1], 1024, jobs[2])


class TestPlanExport:
    def test_json_fields(self):
        doc = json.loads(plan_to_json(plan(4, 4, P.VERTICAL, 48)))
        assert doc["pattern"] == "vertical"
        assert doc["cycle_count"] == 1
        assert doc["width"] == 48
        assert doc["degraded"] is False
        assert doc["cycles"] == [list(range(16))]

    def test_json_roundtrip_ids(self):
        doc = json.loads(plan_to_json(plan(3, 4, P.BALANCED, 9)))
        ids = sorted(j for g in doc["cycles"] for j in g)
        assert ids == list(range(9))


def _reference_split(group: list, cap: int) -> list:
    return [group[k : k + cap] for k in range(0, len(group), cap)]


def _reference_layout(job_ids: list, row_len: int, pattern: StackingPattern, cap: int):
    """The materialized layout the closed-form plan replaced: base cycle
    groups for a pattern, then greedy budget splitting."""
    if pattern is StackingPattern.HORIZONTAL:
        base = [[j] for j in job_ids]
    elif pattern is StackingPattern.BALANCED:
        base = _reference_split(job_ids, max(1, row_len))
    elif pattern is StackingPattern.VERTICAL:
        base = [list(job_ids)] if job_ids else []
    else:
        base = _reference_split(list(job_ids), cap)
    degraded = False
    cycles = []
    for group in base:
        if len(group) > cap:
            if pattern is not StackingPattern.BATCH:
                degraded = True
            cycles.extend(_reference_split(group, cap))
        else:
            cycles.append(group)
    return cycles, degraded


class TestClosedFormPlan:
    @settings(deadline=None, max_examples=500)
    @given(
        num_jobs=st.integers(0, 300),
        row_len=st.integers(0, 40),
        dim=st.integers(1, 64),
        pattern=st.sampled_from(list(P)),
        extra=st.integers(0, 10**4),
    )
    def test_matches_the_materialized_layout(self, num_jobs, row_len, dim, pattern, extra):
        q = qubits_per_test(dim)
        budget = min(q + extra, 10**4)
        p = plan_jobs(num_jobs, row_len, dim, pattern, budget)
        cycles, degraded = _reference_layout(list(range(num_jobs)), row_len, pattern, budget // q)
        assert [list(g) for g in p.cycles] == cycles
        assert p.cycle_count == len(cycles)
        assert p.width == max((len(g) for g in cycles), default=0) * q
        assert p.degraded == degraded
        assert p.total_jobs == sum(len(g) for g in cycles) == num_jobs
