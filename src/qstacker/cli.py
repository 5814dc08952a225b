"""Experiment runner CLI.

Subcommands: matmul, plan, entropy-sweep, train, verify. Every run is
deterministic given its seed flags; this module writes every artifact, as
CSV (_csv_line) or JSON (write_json) files under --out. Exit codes: 0 ok,
2 usage error, 3 data error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import checks, matio, nn, stacking
from .entropy import (
    StateFamily,
    SweepPairing,
    correlation_summary,
    crossing_point,
    sweep_levels,
    variance_sweep,
)
from .matmul import MatMulConfig, MatMulResult, error_budget, matmul as run_matmul
from .errors import InvalidArgument, NoCrossing, QStackerError, as_enum
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


def _seed(args) -> int:
    """--seed, else $AQ_SEED, else 0. train does not call this: its default
    is the run file's seed."""
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("AQ_SEED", "0"))
    except ValueError as exc:
        raise InvalidArgument(f"AQ_SEED: {exc}") from None


def _add_common(p: argparse.ArgumentParser, out: bool = True) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: $AQ_SEED or 0; train: the run file's seed)")
    if out:
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qstacker")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matmul", help="multiply two matrix files through the engine")
    p.add_argument("--a", required=True, type=Path)
    p.add_argument("--b", required=True, type=Path)
    p.add_argument("--shots", type=int, default=16384)
    p.add_argument("--pattern", choices=[m.value for m in stacking.StackingPattern], default="batch")
    p.add_argument("--budget", type=int, default=None, help="qubit budget")
    p.add_argument("--exact", action="store_true", help="skip sampling, analytic overlaps")
    p.add_argument("--check-classical", action="store_true", help="report error vs the classical product")
    _add_common(p)

    p = sub.add_parser("plan", help="print a stacking plan as JSON")
    p.add_argument("--n", required=True, type=int, help="matrix size (N^2 jobs)")
    p.add_argument("--dim", required=True, type=int, help="vector dimension per test")
    p.add_argument("--pattern", choices=[m.value for m in stacking.StackingPattern], default="vertical")
    p.add_argument("--budget", required=True, type=int)
    p.add_argument("--out", type=Path, default=None, help="also write plan.json here")

    p = sub.add_parser("entropy-sweep", help="variance-vs-entropy sweeps per state family")
    p.add_argument("--families", default="uniform,normal",
                   help="comma list of: " + ",".join(f.value for f in StateFamily))
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--pairing", choices=[m.value for m in SweepPairing], default="resigned")
    _add_common(p)

    p = sub.add_parser("train", help="train the classifier from a key=value config file")
    p.add_argument("--config", required=True, type=Path)
    _add_common(p)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    _add_common(p, out=False)
    return parser


def to_json(doc, indent=None) -> str:
    """doc as strict JSON: a non-finite float is null, never NaN or Infinity."""
    plain = json.loads(json.dumps(doc), parse_constant=lambda name: None)
    return json.dumps(plain, indent=indent, allow_nan=False)


def write_json(doc, path) -> None:
    """A JSON artifact: to_json(doc) indented 2, with a trailing newline."""
    with open(path, "w") as fh:
        fh.write(to_json(doc, indent=2) + "\n")


def _csv_line(values) -> str:
    """One CSV line: floats as repr, so they read back exactly; others as str."""
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n"


def write_result_csv(result: MatMulResult, path, product_path=None) -> None:
    """Per-element dump: i, j, z_hat, c_ij, stderr (plug-in error_budget of
    the norm product, with the norms' exponents applied last).

    With product_path, C goes there too, as matio.write_matrix_csv writes it,
    from the same c_ij strings. Both files stream one row at a time: each
    value is repr'd once, and row i goes out in one write per file.

    Each row fills one template of 8 slots per column ("i,", "j,", z_hat,
    ",", c_ij, ",", stderr, newline) whose "j," slots are set once per
    product; exact mode leaves the constant "0.0" in every stderr slot.
    """
    z = result.z_hat
    se = None
    if not result.exact:
        # the norms' exponents apply last, as in c: stderr stays finite where
        # norm_products overflows
        mant, exp = result.norm_parts
        with np.errstate(over="ignore"):
            se = np.ldexp(error_budget(mant, result.shots, mu=z), exp)
    cols = z.shape[1]
    line = ["", "", "", ",", "", ",", "0.0", "\n"] * cols
    line[1::8] = [f"{j}," for j in range(cols)]
    with (
        open(path, "w") as fh,
        nullcontext() if product_path is None else open(product_path, "w") as product,
    ):
        fh.write("i,j,z_hat,c_ij,stderr\n")
        for i, (z_row, c_row) in enumerate(zip(z, result.c)):
            cells = list(map(repr, c_row.tolist()))
            line[0::8] = [f"{i},"] * cols
            line[2::8] = map(repr, z_row.tolist())
            line[4::8] = cells
            if se is not None:
                line[6::8] = map(repr, se[i].tolist())
            fh.write("".join(line))
            if product is not None:
                product.write(",".join(cells) + "\n")


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
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: null in JSON
            err = np.abs(result.c - classical)  # never empty: as_matrix refuses size 0
            out["max_abs_error"] = float(err.max())
            out["mean_abs_error"] = float(err.mean())
    return out


def write_summary_json(result: MatMulResult, path, classical: np.ndarray | None = None) -> dict:
    """Write summary_dict(result, classical) as JSON and return the dict."""
    summary = summary_dict(result, classical)
    write_json(summary, path)
    return summary


def _plan_doc(p: stacking.StackingPlan) -> dict:
    return {
        "pattern": p.pattern.value,
        "dim": p.dim,
        "qubits_per_test": p.qubits_per_test,
        "total_jobs": p.total_jobs,
        "cycle_count": p.cycle_count,
        "width": p.width,
        "degraded": p.degraded,
        "cycles": [list(g) for g in p.cycles],
    }


def plan_to_json(p: stacking.StackingPlan) -> str:
    """The plan as `plan` prints it: plan.json without its trailing newline."""
    return to_json(_plan_doc(p), indent=2)


# (header, SweepRecord field) for each sweep.csv column, in file order
SWEEP_CSV_COLUMNS = (
    ("family", "family"),
    ("n", "dim"),
    ("H_nats", "entropy_nats"),
    ("H_bits", "entropy_bits"),
    ("purity", "purity"),
    ("empirical_variance", "empirical_variance"),
    ("dividend_bound", "dividend_bound"),
    ("shots", "shots"),
    ("repetitions", "repetitions"),
    ("support", "support"),
    ("overlap_variance", "overlap_variance"),
    ("total_variance", "total_variance"),
    ("pairing", "pairing"),
)


def write_sweep_csv(records, path) -> None:
    """One line per SweepRecord, in SWEEP_CSV_COLUMNS order."""
    with open(path, "w") as fh:
        fh.write(_csv_line(header for header, _ in SWEEP_CSV_COLUMNS))
        fh.writelines(_csv_line(getattr(r, name) for _, name in SWEEP_CSV_COLUMNS) for r in records)


write_correlation_json = write_json  # correlation.json, under its own name for perfbench's tracer


def cmd_matmul(args) -> int:
    a = matio.read_matrix(args.a)
    b = matio.read_matrix(args.b)
    cfg = MatMulConfig(
        shots=args.shots,
        pattern=args.pattern,
        seed=_seed(args),
        exact=args.exact,
        qubit_budget=args.budget,
    )
    result = run_matmul(a, b, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    write_result_csv(result, args.out / "matmul.csv", args.out / "product.csv")
    with np.errstate(over="ignore"):  # an overflowing entry's error is null in the summary
        classical = a @ b if (args.check_classical or args.exact) else None
    summary = write_summary_json(result, args.out / "matmul_summary.json", classical=classical)
    print(to_json(summary))
    return EXIT_OK


def cmd_plan(args) -> int:
    p = stacking.plan(args.n, args.dim, args.pattern, args.budget)
    print(plan_to_json(p))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_json(_plan_doc(p), args.out / "plan.json")
    return EXIT_OK


def cmd_entropy_sweep(args) -> int:
    seed = _seed(args)
    families = [as_enum(StateFamily, tok.strip(), "--families")
                for tok in args.families.split(",") if tok.strip()]
    if not families or len(set(families)) < len(families):
        raise InvalidArgument(f"--families must name each family once, got {args.families!r}")
    sweeps = {}
    for k, family in enumerate(families):
        sweeps[family.value] = variance_sweep(
            family,
            sweep_levels(family, args.levels, args.dim),
            dim=args.dim,
            shots=args.shots,
            repetitions=args.reps,
            seed=derive_seed(seed, k),
            pairing=args.pairing,
        )
    args.out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(itertools.chain(*sweeps.values()), args.out / "sweep.csv")
    crossings = []
    for a, b in itertools.combinations(sweeps, 2):
        try:
            crossings.append(((a, b), crossing_point(sweeps[a], sweeps[b])))
        except NoCrossing:
            pass
    summary = correlation_summary(sweeps, crossings)
    write_correlation_json(summary, args.out / "correlation.json")
    print(to_json(summary))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, data = nn.load_run(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _, report = nn.train(data, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    doc = {
        "mode": report.mode,
        "final_accuracy": report.final_accuracy,
        "quantum_jobs": report.quantum_jobs,
        "wall_clock_s": report.wall_clock_s,
        "epochs": len(report.epochs),
    }
    write_json(doc, args.out / "train_report.json")
    with open(args.out / "train_epochs.csv", "w") as fh:
        fh.writelines(map(_csv_line, [("epoch", "train_loss", "test_accuracy"), *report.epochs]))
    print(to_json({key: doc[key] for key in ("final_accuracy", "quantum_jobs", "mode")}))
    return EXIT_OK


def cmd_verify(args) -> int:
    """Every criterion of checks.CRITERIA, in order, at its verify defaults."""
    seed = _seed(args)
    failures = 0
    for number, (name, _) in checks.CRITERIA.items():
        ok, detail = checks.run(number, seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} verification check(s) failed")
        return EXIT_VERIFY
    print("all verification checks passed")
    return EXIT_OK


_COMMANDS = {
    "matmul": cmd_matmul,
    "plan": cmd_plan,
    "entropy-sweep": cmd_entropy_sweep,
    "train": cmd_train,
    "verify": cmd_verify,
}


# built on the first main() call and reused: parse_args keeps no state in the
# parser, and no default is mutable
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidArgument as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, QStackerError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
