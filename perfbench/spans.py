"""Per-layer tracing from outside the program.

For a traced pass, Tracer.install() replaces the module attributes through
which qstacker's layers call each other with wrappers. Each wrapper records
a span (name, start, end, parent) in memory; a layer's self time is its
spans' duration minus the duration of their direct child spans. Counts come
from the values the wrapped calls return, read after the pass. An entry
point that no longer exists is reported as absent rather than failing, and
the untraced benchmark never touches any of these names.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

# span name -> the (module, attribute) bindings its callers look it up through
SPANS = {
    "vectors.prepare_all": [("qstacker.matmul", "prepare_all")],
    "hadamard.sample_hadamard": [("qstacker.stacking", "sample_hadamard")],
    "hadamard.analytic_overlap": [("qstacker.hadamard", "analytic_overlap"),
                                  ("qstacker.matmul", "analytic_overlap")],
    "hadamard.estimate": [("qstacker.matmul", "estimate")],
    "seeding.derive_seed": [("qstacker.matmul", "derive_seed"), ("qstacker.nn", "derive_seed"),
                            ("qstacker.entropy", "derive_seed"), ("qstacker.cli", "derive_seed")],
    "seeding.job_rng": [("qstacker.hadamard", "job_rng"), ("qstacker.nn", "job_rng"),
                        ("qstacker.entropy", "job_rng")],
    "stacking.plan_jobs": [("qstacker.matmul", "plan_jobs")],
    "stacking.execute_plan": [("qstacker.matmul", "execute_plan")],
    "matmul.matmul": [("qstacker", "matmul"), ("qstacker.nn", "matmul"),
                      ("qstacker.cli", "run_matmul")],
    "nn.train": [("qstacker.nn", "train")],
    "nn.forward": [("qstacker.nn", "forward")],
    "entropy.variance_sweep": [("qstacker.cli", "variance_sweep"),
                               ("qstacker.entropy", "variance_sweep")],
    "entropy.generate_state": [("qstacker.entropy", "generate_state")],
    "entropy.crossing_point": [("qstacker.cli", "crossing_point")],
    "entropy.pearson": [("qstacker.entropy", "pearson")],
    "matio.read_matrix": [("qstacker.matio", "read_matrix")],
    "matio.write_matrix_csv": [("qstacker.matio", "write_matrix_csv")],
    "cli.main": [("qstacker.cli", "main")],
    "cli.write_artifacts": [("qstacker.cli", "write_result_csv"),
                            ("qstacker.cli", "write_summary_json"),
                            ("qstacker.cli", "write_sweep_csv"),
                            ("qstacker.cli", "write_correlation_json")],
}

# layer -> (per-layer metrics, the (end-to-end metric, workload) pairs they should move)
LAYERS = {
    "vectors": (
        [("vectors.prepare_all.self_s", "s"), ("vectors.prepare_all.calls", "count"),
         ("vectors.encodes", "count"), ("vectors.cache_hit_ratio", "ratio")],
        [("latency_p50_ms", "train-iris")],
    ),
    "hadamard": (
        [("hadamard.sample_hadamard.self_s", "s"), ("hadamard.sample_hadamard.calls", "count"),
         ("hadamard.analytic_overlap.self_s", "s"), ("hadamard.analytic_overlap.calls", "count"),
         ("hadamard.overlaps_per_element", "ratio"), ("hadamard.estimate.self_s", "s"),
         ("hadamard.shots_total", "count")],
        [("elements_per_s", "matmul-sampled")],
    ),
    "seeding": (
        [("seeding.derive_seed.self_s", "s"), ("seeding.derive_seed.calls", "count"),
         ("seeding.job_rng.self_s", "s"), ("seeding.job_rng.calls", "count")],
        [("elements_per_s", "matmul-sampled"), ("elements_per_s", "train-iris")],
    ),
    "stacking": (
        [("stacking.plan_jobs.self_s", "s"), ("stacking.execute_plan.self_s", "s"),
         ("stacking.cycles", "count")],
        [("elements_per_s", "matmul-sampled"), ("latency_p50_ms", "train-iris")],
    ),
    "matmul": (
        [("matmul.matmul.self_s", "s"), ("matmul.calls", "count"), ("matmul.jobs", "count"),
         ("matmul.elements_per_call", "ratio"), ("matmul.us_per_element", "us")],
        [("elements_per_s", "matmul-exact-cli"), ("elements_per_s", "matmul-sampled")],
    ),
    "nn": (
        [("nn.train.self_s", "s"), ("nn.forward.self_s", "s"), ("nn.forward.calls", "count"),
         ("nn.matmul_share", "ratio")],
        [("latency_p50_ms", "train-iris")],
    ),
    "entropy": (
        [("entropy.variance_sweep.self_s", "s"), ("entropy.generate_state.self_s", "s"),
         ("entropy.generate_state.calls", "count"), ("entropy.crossing_point.self_s", "s"),
         ("entropy.crossing_point.calls", "count"), ("entropy.pearson.self_s", "s"),
         ("entropy.estimates", "count")],
        [("latency_p50_ms", "entropy-sweep-cli")],
    ),
    "matio": (
        [("matio.read_matrix.self_s", "s"), ("matio.bytes_read", "bytes"),
         ("matio.write_matrix_csv.self_s", "s")],
        [("latency_p50_ms", "matmul-exact-cli")],
    ),
    "cli": (
        [("cli.main.self_s", "s"), ("cli.write_artifacts.self_s", "s"),
         ("cli.bytes_written", "bytes")],
        [("latency_p50_ms", "matmul-exact-cli"), ("latency_p50_ms", "entropy-sweep-cli")],
    ),
    "trace": ([("trace.overhead_frac", "frac")], []),
}

PER_LAYER = [metric for metrics, _ in LAYERS.values() for metric in metrics]

# metrics that must repeat exactly between two traced passes over the same ops
REPEATING = [name for name, unit in PER_LAYER if unit == "count"]


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus its direct children's.

    spans is a sequence of (name, start, end, parent_index), parent -1 for a
    root; single-threaded children never overlap one another, so their
    durations can simply be subtracted.
    """
    own = defaultdict(float)
    for name, start, end, parent in spans:
        dur = end - start
        own[name] += dur
        if parent >= 0:
            own[spans[parent][0]] -= dur
    return dict(own)


def _path_arg(args, kwargs):
    for value in (*args, kwargs.get("path")):
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


class Tracer:
    """Span recorder that wraps qstacker's layer boundaries while installed."""

    def __init__(self):
        self.absent = [name for name, bindings in SPANS.items()
                       if not any(self._lookup(m, a) is not None for m, a in bindings)]
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.results = []  # values returned by matmul calls
        self.sweeps = []  # values returned by variance_sweep calls
        self.bytes_read = 0
        self.bytes_written = 0

    @staticmethod
    def _lookup(module_name, attr):
        try:
            fn = getattr(importlib.import_module(module_name), attr, None)
        except ImportError:
            return None
        return fn if callable(fn) else None

    def install(self) -> None:
        hooks = {
            "matmul.matmul": lambda out, args, kwargs: self.results.append(out),
            "entropy.variance_sweep": lambda out, args, kwargs: self.sweeps.append(out),
            "matio.read_matrix": self._count_read,
            "matio.write_matrix_csv": self._count_written,
            "cli.write_artifacts": self._count_written,
        }
        for name, bindings in SPANS.items():
            for module_name, attr in bindings:
                fn = self._lookup(module_name, attr)
                if fn is None:
                    continue
                module = importlib.import_module(module_name)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _count_read(self, out, args, kwargs) -> None:
        path = _path_arg(args, kwargs)
        if path is not None:
            self.bytes_read += os.path.getsize(path)

    def _count_written(self, out, args, kwargs) -> None:
        path = _path_arg(args, kwargs)
        if path is not None:
            self.bytes_written += os.path.getsize(path)

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> tuple[dict, list]:
        """Per-layer values for the spans recorded since reset().

        Returns (values, absent_metrics); an absent metric reads 0.
        """
        own = self_times(self.spans)
        calls = Counter(s[0] for s in self.spans)
        absent = set()
        values = {}
        for name, unit in PER_LAYER:
            if name.endswith(".self_s"):
                span = name[: -len(".self_s")]
                values[name] = own.get(span, 0.0)
                if span in self.absent:
                    absent.add(name)
            elif name.endswith(".calls"):
                span = "matmul.matmul" if name == "matmul.calls" else name[: -len(".calls")]
                values[name] = calls.get(span, 0)
                if span in self.absent:
                    absent.add(name)
        derived, missing = self._derived(calls)
        values.update(derived)
        absent.update(missing)
        return values, sorted(absent)

    def _derived(self, calls) -> tuple[dict, set]:
        """Metrics computed from returned values and span nesting."""
        missing = set()

        def total(metric, fn, source):
            if (source is self.results and "matmul.matmul" in self.absent) or (
                    source is self.sweeps and "entropy.variance_sweep" in self.absent):
                missing.add(metric)
            try:
                return sum(fn(item) for item in source)
            except AttributeError:
                missing.add(metric)
                return 0

        results, sweeps = self.results, self.sweeps
        hits = total("vectors.cache_hit_ratio", lambda r: r.cache_hits, results)
        encodes = total("vectors.encodes", lambda r: r.cache_misses, results)
        if "vectors.encodes" in missing:
            missing.add("vectors.cache_hit_ratio")
        live = total("hadamard.overlaps_per_element",
                     lambda r: int((r.norm_products != 0.0).sum()), results)
        elements = sum(r.c.size for r in results)
        matmul_time = sum(end - start for name, start, end, _ in self.spans
                          if name == "matmul.matmul")
        values = {
            "vectors.encodes": encodes,
            "vectors.cache_hit_ratio": hits / (hits + encodes) if hits + encodes else 0.0,
            "hadamard.overlaps_per_element":
                calls.get("hadamard.analytic_overlap", 0) / live if live else 0.0,
            "hadamard.shots_total":
                total("hadamard.shots_total", lambda r: 0 if r.exact else r.job_count * r.shots,
                      results),
            "stacking.cycles":
                total("stacking.cycles", lambda r: r.plan_used.cycle_count, results),
            "matmul.jobs": total("matmul.jobs", lambda r: r.job_count, results),
            "matmul.elements_per_call": elements / len(results) if results else 0.0,
            "matmul.us_per_element": 1e6 * matmul_time / elements if elements else 0.0,
            "nn.matmul_share": self._share_under("matmul.matmul", "nn.train"),
            "entropy.estimates":
                total("entropy.estimates", lambda recs: sum(r.repetitions for r in recs), sweeps),
            "matio.bytes_read": self.bytes_read,
            "cli.bytes_written": self.bytes_written,
        }
        return values, missing

    def _share_under(self, child: str, ancestor: str) -> float:
        """Time in `child` spans nested under `ancestor` spans, over the ancestors' time."""
        inside = [False] * len(self.spans)
        child_time = ancestor_time = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans):
            under = parent >= 0 and inside[parent]
            inside[k] = under or name == ancestor
            if name == ancestor and not under:
                ancestor_time += end - start
            elif name == child and under:
                child_time += end - start
        return child_time / ancestor_time if ancestor_time else 0.0


def summarize_passes(passes: list) -> tuple[dict, list]:
    """Combine per-pass metric dicts: counts from the first pass, other values
    as the median over passes. Returns (values, mismatches) where mismatches
    name every repeating count that differed between passes."""
    first = passes[0]
    mismatches = [
        f"{name}: {[p[name] for p in passes]}"
        for name in REPEATING
        if any(p[name] != first[name] for p in passes[1:])
    ]
    values = {
        name: first[name] if name in REPEATING else statistics.median(p[name] for p in passes)
        for name in first
    }
    return values, mismatches
