"""Experiment runner CLI.

Subcommands: matmul, plan, entropy-sweep, train, verify. Every run is
deterministic given its seed flags; artifacts are CSV/JSON files written
under --out. Exit codes: 0 ok, 2 usage error, 3 data error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, matio, nn, stacking
from .entropy import (
    StateFamily,
    SweepPairing,
    correlation_summary,
    crossing_point,
    variance_sweep,
    write_correlation_json,
    write_sweep_csv,
)
from .matmul import (
    MatMulConfig,
    matmul as run_matmul,
    write_result_csv,
    write_summary_json,
)
from .errors import InvalidArgument, QStackerError, as_int
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


def _default_seed() -> int:
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


def _sweep_levels(family: StateFamily, count: int, dim: int):
    count = as_int(count, "levels", minimum=3)  # each family's correlation needs three points
    dim = as_int(dim, "dim", minimum=1)  # generate_state refuses dim 1 with InvalidSupport
    if family is StateFamily.INTERPOLATED:
        return list(np.linspace(0.0, 1.0, count))
    if family in (StateFamily.UNIFORM, StateFamily.EXPONENTIAL, StateFamily.CHI_SQUARE):
        return [max(1, int(round(v))) for v in np.geomspace(1, dim, count)]
    return [dim] * count  # normal: fixed full support, entropy varies by draw


def cmd_matmul(args) -> int:
    a = matio.read_matrix(args.a)
    b = matio.read_matrix(args.b)
    cfg = MatMulConfig(
        shots=args.shots,
        pattern=stacking.StackingPattern(args.pattern),
        seed=args.seed if args.seed is not None else _default_seed(),
        exact=args.exact,
        qubit_budget=args.budget,
    )
    result = run_matmul(a, b, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    write_result_csv(result, args.out / "matmul.csv")
    classical = a @ b if (args.check_classical or args.exact) else None
    summary = write_summary_json(result, args.out / "matmul_summary.json", classical=classical)
    matio.write_matrix_csv(args.out / "product.csv", result.c)
    print(json.dumps(summary))
    return EXIT_OK


def cmd_plan(args) -> int:
    p = stacking.plan(args.n, args.dim, stacking.StackingPattern(args.pattern), args.budget)
    text = stacking.plan_to_json(p)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "plan.json").write_text(text + "\n")
    return EXIT_OK


def cmd_entropy_sweep(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        families = [StateFamily(tok.strip()) for tok in args.families.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgument(f"--families: {exc}") from None
    args.out.mkdir(parents=True, exist_ok=True)
    sweeps = {}
    all_records = []
    for k, family in enumerate(families):
        levels = _sweep_levels(family, args.levels, args.dim)
        records = variance_sweep(
            family,
            levels,
            dim=args.dim,
            shots=args.shots,
            repetitions=args.reps,
            seed=derive_seed(seed, k),
            pairing=SweepPairing(args.pairing),
        )
        sweeps[family.value] = records
        all_records.extend(records)
    write_sweep_csv(all_records, args.out / "sweep.csv")
    crossings = []
    for a, b in itertools.combinations(sweeps, 2):
        try:
            crossings.append(((a, b), crossing_point(sweeps[a], sweeps[b])))
        except QStackerError:
            pass
    summary = correlation_summary(sweeps, crossings)
    write_correlation_json(summary, args.out / "correlation.json")
    print(json.dumps(summary))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, data = nn.load_run(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _, report = nn.train(data, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    nn.write_train_report_json(report, args.out / "train_report.json")
    nn.write_epoch_csv(report, args.out / "train_epochs.csv")
    print(json.dumps({
        "final_accuracy": report.final_accuracy,
        "quantum_jobs": report.quantum_jobs,
        "mode": report.mode,
    }))
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    # acceptance criteria 1, 2, 3, 5 and 7 with their acceptance bounds; the
    # entropy check samples 2000 distributions per family (acceptance: 20000)
    battery = (
        ("circuit fidelity", lambda: checks.circuit_fidelity(seed)),
        ("estimator law", lambda: checks.estimator_law(seed)),
        ("exact-mode matmul", lambda: checks.exact_matmul(seed, np.matmul)),
        ("pattern invariance", lambda: checks.pattern_invariance(seed)),
        ("purity/Renyi inequality", lambda: checks.entropy_inequalities(seed, 2000)),
    )
    failures = 0
    for name, check in battery:
        ok, detail = check()
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
