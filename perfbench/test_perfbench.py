"""Tests for the benchmark's own helpers: percentiles, spans and oracles."""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from measure import TAIL_LADDER, percentile, tail_percentile
from spans import PER_LAYER, Tracer, self_times, summarize_passes

ROOT = Path(__file__).resolve().parent.parent


def beyond(n, q):
    return n - math.ceil(round(q * n / 100.0, 9))


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, None), (30, 60.0), (39, 70.0), (40, 75.0), (50, 80.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_qualifying_ladder_entry():
    for n in range(1, 3000):
        q = tail_percentile(n)
        qualifying = [p for p in TAIL_LADDER if beyond(n, p) >= 10]
        assert q == (qualifying[0] if qualifying else None)


def test_nearest_rank_percentile_leaves_ten_samples_beyond():
    values = list(range(50, 0, -1))
    assert percentile(values, 80.0) == 40
    assert sum(v > percentile(values, 80.0) for v in values) == 10
    assert percentile(values, 50.0) == 25


def test_self_time_subtracts_direct_children():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("mid", 5.0, 9.0, 0),
        ("leaf", 6.0, 6.5, 3),
        ("outer", 20.0, 21.0, -1),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 3.0 - 4.0 + 1.0)
    assert own["mid"] == pytest.approx(3.0 - 1.0 + 4.0 - 0.5)
    assert own["leaf"] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(11.0)  # the roots' total


def test_summarize_passes_reports_count_mismatches():
    first = {name: 1 for name, _ in PER_LAYER}
    second = dict(first, **{"matmul.jobs": 2, "matmul.us_per_element": 3})
    values, mismatches = summarize_passes([first, second, first])
    assert values["matmul.jobs"] == 1
    assert values["matmul.us_per_element"] == 1
    assert mismatches == ["matmul.jobs: [1, 2, 1]"]


def test_tracer_counts_a_small_product_and_restores_bindings():
    qstacker = pytest.importorskip("qstacker")
    mm = importlib.import_module("qstacker.matmul")
    original = mm.execute_plan
    a = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
    b = np.array([[1.0, 0.5], [2.0, -1.0]])
    tracer = Tracer()
    tracer.install()
    try:
        qstacker.matmul(a, b, qstacker.MatMulConfig(shots=256, seed=3))
    finally:
        tracer.uninstall()
    assert mm.execute_plan is original
    values, absent = tracer.metrics()
    assert absent == []
    assert values["matmul.calls"] == 1
    assert values["matmul.jobs"] == 4  # the zero row dispatches no jobs
    assert values["hadamard.sample_hadamard.calls"] == 4
    assert values["hadamard.overlaps_per_element"] == 2.0
    assert values["hadamard.shots_total"] == 4 * 256
    assert values["vectors.encodes"] == 5
    assert values["matmul.elements_per_call"] == 6


def test_tracer_reports_a_missing_entry_point_as_absent(monkeypatch):
    qstacker = pytest.importorskip("qstacker")
    monkeypatch.delattr(importlib.import_module("qstacker.stacking"), "sample_hadamard")
    tracer = Tracer()
    assert tracer.absent == ["hadamard.sample_hadamard"]
    tracer.install()
    tracer.uninstall()
    values, absent = tracer.metrics()
    assert absent == ["hadamard.sample_hadamard.calls", "hadamard.sample_hadamard.self_s"]
    assert values["hadamard.sample_hadamard.calls"] == 0


def hand_made_product(shots=4096, seed=11):
    """A product whose every residual is set by hand: mean 0, variance 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(40, 30))
    b = rng.normal(size=(30, 50))
    a[7] = 0.0
    b[:, 3] = a[2]
    an, bn = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=0)
    mu = (a / np.where(an == 0, 1, an)[:, None]) @ (b / bn)
    r = rng.standard_normal(mu.shape)
    r = (r - r.mean()) / r.std(ddof=1)
    sigma = np.sqrt(np.clip(1.0 - mu**2, 0.0, None) / shots)
    c = np.outer(an, bn) * (mu + sigma * r)
    c[2, 3] = an[2] * bn[3]  # planted overlap +1, estimated exactly
    return a, b, c, sigma, [(2, 3, 1)]


def test_residual_check_accepts_a_hand_made_sampled_product():
    a, b, c, _, planted = hand_made_product()
    oracles.check_sampled(a, b, c, 4096, planted)


def test_residual_check_rejects_one_element_shifted_by_ten_sigma():
    a, b, c, sigma, planted = hand_made_product()
    an, bn = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=0)
    c[5, 9] += 10.0 * sigma[5, 9] * an[5] * bn[9]
    with pytest.raises(oracles.CheckFailed, match="sigma"):
        oracles.check_sampled(a, b, c, 4096, planted)


def test_residual_check_rejects_nonzero_zero_rows_and_inexact_planted_elements():
    a, b, c, _, planted = hand_made_product()
    bad = c.copy()
    bad[7, 0] = 1e-300
    with pytest.raises(oracles.CheckFailed, match="exact zeros"):
        oracles.check_sampled(a, b, bad, 4096, planted)
    bad = c.copy()
    bad[2, 3] *= 1.0 - 1e-9
    with pytest.raises(oracles.CheckFailed, match="overlap"):
        oracles.check_sampled(a, b, bad, 4096, planted)


def test_exact_check_tolerance():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(6, 200)), rng.normal(size=(200, 4))
    oracles.check_exact(a, b, a @ b + 1e-12)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_exact(a, b, a @ b + 1e-6)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
