#!/usr/bin/env python3
"""qstacker benchmark: one closed-loop client, one process, no worker threads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. With --trace 0 it times ops for --seconds seconds (at
least the workload's minimum op count), checks every output against a
numpy oracle, starts the program SETUP_PROBES more times in fresh
processes to time set-up, and reports the end-to-end metrics. With
--trace 1 it alternates untraced and traced passes over a fixed list of ops
and reports the per-layer metrics of spans.LAYERS, including the tracing
overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Op timings in that object are at the reference host speed of
measure.REF_KERNEL_S: the op wall times are multiplied by the median speed
factor of the calibration kernels timed after every op. setup_s is wall
time as measured: it is mostly imports, which the kernel does not track.
The printed table shows the reference timings beside the wall times. Two
metrics are printed but left out of the JSON:
failed_ops_frac, which the JSON's "failed"/"attempted" counts carry (a
metric there must never read 0), and latency_tail_ms, whose run-to-run
spread on a shared host (10-20% of its median) is too wide to gate on.
"""

import os

# BLAS gets one thread: the client is single-threaded and the box has 2 cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import percentile, speed_factor, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("matmul-sampled", "matmul-exact-cli", "train-iris", "entropy-sweep-cli")
SETUP_PROBES = 3  # fresh processes whose median start-up is setup_s
HARD_LIMIT_S = 150  # the timed loop stops here even below the minimum op count
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import qstacker from this checkout's src/, or exit 1 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qstacker
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qstacker from {src}: {exc}")
    if Path(qstacker.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: qstacker imported from {qstacker.__file__}, not {src}")
    import workloads

    return workloads


def blas_info() -> dict:
    """BLAS library and the thread count it reports, where it can be asked."""
    import ctypes

    import numpy as np

    info = {"env_threads": BLAS_THREADS}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["library"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                info["threads"] = int(getattr(handle, fn)())
                return info
    return info


def environment(args) -> dict:
    import numpy as np
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "git_commit": commit,
    }


class Loop:
    """Runs ops of one workload, timing each call and checking each output."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures = []
        self.speeds = []  # speed_factor() measured right after each completed op

    def op(self, i: int, measured: bool = True):
        """Run op i; return its wall latency in seconds (None if it raised).

        A measured op is followed by a calibration kernel and an output check.
        """
        inputs = self.w.prepare(i)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = self.w.run(inputs)
        except Exception:
            self._fail(i, traceback.format_exc(limit=3))
            return None
        latency = time.perf_counter() - t0
        if measured:
            self.speeds.append(speed_factor())
            try:
                self.w.check(inputs, output)
            except Exception as exc:
                self._fail(i, f"{type(exc).__name__}: {exc}")
        return latency

    def _fail(self, i, detail):
        self.failures.append(i)
        print(f"FAIL {self.w.name} op {i}: {detail.strip()}", flush=True)


def make_workload(workloads, args, workdir):
    """Set-up as a user pays it: build the workload and run op 0 as warm-up.

    A set-up probe skips the warm-up's calibration and output check, which
    users do not pay.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](str(ROOT), args.seed, str(workdir))
    loop = Loop(w)
    loop.op(0, measured=not args.setup_probe)
    return loop


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until its first timed op could run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}")
    return float(lines[-1]) - start


def timing_metrics(w, latencies, setups) -> dict:
    """End-to-end timings from op latencies and set-up times (both in seconds)."""
    n = len(latencies)
    tail = tail_percentile(w.min_ops)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh starts"),
        "elements_per_s": (w.elements_per_op / statistics.median(latencies), "1/s",
                           f"{w.elements_per_op} estimates per op, at the p50 latency"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms", f"p50 of {n} ops"),
        "latency_tail_ms": (1e3 * percentile(latencies, tail), "ms", f"p{tail:g} of {n} ops"),
    }


def measure(loop, args) -> dict:
    w = loop.w
    latencies = []
    start = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= args.seconds and len(latencies) >= w.min_ops):
            break
        latency = loop.op(i)
        if latency is not None:
            latencies.append(latency)
        i += 1
    if not latencies:
        raise RuntimeError(f"no op of {w.name} completed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    # one speed for the whole run: scaling each op by its own calibration
    # adds that kernel's jitter to every op and widens the tail
    speed = statistics.median(loop.speeds[-len(latencies):])
    wall = timing_metrics(w, latencies, setups)
    metrics = timing_metrics(w, [t * speed for t in latencies], setups)
    metrics["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss of the benchmark process")
    printed_only = ("latency_tail_ms",)
    failed = len(loop.failures)
    print(f"{w.name} seed {args.seed}: {len(latencies)} timed ops + 1 warm-up, {failed} failed; "
          f"failed_ops_frac {failed / loop.attempted:g} ({failed}/{loop.attempted}); "
          f"host speed {speed:.3f} of reference")
    print(f"  {'metric':16s} {'reference':>14s} {'as measured':>14s}")
    for name, (value, unit, note) in metrics.items():
        measured = f"{wall[name][0]:14.6g}" if name in wall else " " * 14
        print(f"  {name:16s} {value:14.6g} {measured} {unit:4s} {note}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
            if name not in printed_only}


def measure_trace(loop, args) -> tuple[dict, bool]:
    from spans import LAYERS, PER_LAYER, Tracer, summarize_passes

    w = loop.w
    tracer = Tracer()
    passes, overheads = [], []
    absent = []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start < args.seconds
                              and time.perf_counter() - start < HARD_LIMIT_S):
        plain = sum(loop.op(i) or 0.0 for i in w.trace_ops)
        tracer.reset()
        tracer.install()
        try:
            traced = sum(loop.op(i) or 0.0 for i in w.trace_ops)
        finally:
            tracer.uninstall()
        values, absent = tracer.metrics()
        passes.append(values)
        overheads.append(traced / plain - 1.0 if plain else 0.0)
    values, mismatches = summarize_passes(passes)
    values["trace.overhead_frac"] = statistics.median(overheads)
    print(f"{w.name} seed {args.seed}: {len(passes)} traced passes over ops "
          f"{list(w.trace_ops)}, {len(loop.failures)} failed ops")
    for layer, (metrics, moves) in LAYERS.items():
        targets = ", ".join(f"{m} on {wl}" for m, wl in moves) or "-"
        print(f"  [{layer}] should move: {targets}")
        for name, unit in metrics:
            mark = "  (absent)" if name in absent else ""
            print(f"    {name:34s} {values[name]:14.6g} {unit}{mark}")
    for line in mismatches:
        print(f"COUNT MISMATCH {w.name}: {line}")
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}, \
        not mismatches


def run_one(args) -> int:
    workloads = import_program()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        loop = make_workload(workloads, args, workdir)
        if args.setup_probe:
            print(time.monotonic(), flush=True)
            return 0
        print("env " + json.dumps(environment(args)))
        if args.trace:
            metrics, repeated = measure_trace(loop, args)
        else:
            metrics, repeated = measure(loop, args), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    failed = len(loop.failures)
    print(json.dumps({"correct": failed == 0 and repeated, "attempted": loop.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
