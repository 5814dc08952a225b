"""Output checks for the benchmark workloads.

Every check recomputes the expected answer with numpy from the generated
inputs alone and never calls the code under test. A failed check raises
CheckFailed with a message naming what went wrong.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Bands on the standardized residuals r = (z - mu)/sqrt((1 - mu^2)/S) of one
# sampled product. Each is wide enough that a correct sampler fails it with
# probability below about 1e-9 per product, so that thousands of benchmark
# runs show no false failure; a single element 10 sigma off still fails.
MEAN_SIGMAS = 6.0  # |mean(r)| <= MEAN_SIGMAS / sqrt(n)
VAR_RATIO_BAND = (0.8, 1.2)  # criterion 2's band on var(r)
MAX_ABS_RESIDUAL = 7.0
MAX_FRAC_BEYOND_4 = 0.01  # criterion 4: 99% of elements within 4 sigma
EXACT_TOL = 1e-10  # criterion 3, relative to the largest norm product
PLANTED_TOL = 1e-12


class CheckFailed(Exception):
    """An output disagreed with the numpy oracle."""


def _norms(a: np.ndarray, b: np.ndarray):
    return np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=0)


def sampled_residuals(a, b, c, shots: int, planted=()) -> np.ndarray:
    """Check a sampled product and return the standardized residuals.

    Zero rows of A and zero columns of B must give exact zeros. Elements
    listed in `planted` as (i, j, sign) have overlap exactly +/-1, so their
    estimate must equal sign * ||A_i|| ||B_j||. Every other element returns
    its residual for the statistical bands.
    """
    a, b, c = (np.asarray(m, dtype=np.float64) for m in (a, b, c))
    if c.shape != (a.shape[0], b.shape[1]):
        raise CheckFailed(f"product shape {c.shape}, expected {(a.shape[0], b.shape[1])}")
    an, bn = _norms(a, b)
    dead = (an == 0.0)[:, None] | (bn == 0.0)[None, :]
    if np.any(c[dead] != 0.0):
        raise CheckFailed(f"{int(np.count_nonzero(c[dead]))} zero-norm elements are not exact zeros")
    scale = np.outer(an, bn)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(dead, 0.0, c / scale)
        mu = np.clip((a / np.where(an == 0.0, 1.0, an)[:, None])
                     @ (b / np.where(bn == 0.0, 1.0, bn)[None, :]), -1.0, 1.0)
    live = ~dead
    for i, j, sign in planted:
        if abs(z[i, j] - sign) > PLANTED_TOL:
            raise CheckFailed(f"element ({i},{j}) has overlap {sign:+d} but estimate {z[i, j]!r}")
        live[i, j] = False
    var = (1.0 - mu[live] ** 2) / shots
    if np.any(var <= 0.0):
        raise CheckFailed("an unplanted element has overlap +/-1")
    return (z[live] - mu[live]) / np.sqrt(var)


def residual_bands(r: np.ndarray) -> None:
    """Criterion 2/4-style bands on the residuals of one product."""
    n = r.size
    if n < 2:
        return
    mean = float(np.mean(r))
    if abs(mean) > MEAN_SIGMAS / math.sqrt(n):
        raise CheckFailed(f"residual mean {mean:.4f} outside +/-{MEAN_SIGMAS / math.sqrt(n):.4f} (n={n})")
    var = float(np.var(r, ddof=1))
    lo, hi = VAR_RATIO_BAND
    if not lo <= var <= hi:
        raise CheckFailed(f"residual variance {var:.4f} outside [{lo}, {hi}] (n={n})")
    worst = float(np.max(np.abs(r)))
    if worst > MAX_ABS_RESIDUAL:
        raise CheckFailed(f"residual {worst:.2f} sigma exceeds {MAX_ABS_RESIDUAL} sigma")
    beyond = float(np.mean(np.abs(r) > 4.0))
    if beyond > MAX_FRAC_BEYOND_4:
        raise CheckFailed(f"{beyond:.4f} of elements beyond 4 sigma")


def check_sampled(a, b, c, shots: int, planted=()) -> None:
    residual_bands(sampled_residuals(a, b, c, shots, planted))


def check_exact(a, b, c) -> None:
    """Criterion 3: the exact-mode product equals a @ b to 1e-10 of its scale."""
    a, b, c = (np.asarray(m, dtype=np.float64) for m in (a, b, c))
    expected = a @ b
    if c.shape != expected.shape:
        raise CheckFailed(f"product shape {c.shape}, expected {expected.shape}")
    an, bn = _norms(a, b)
    tol = EXACT_TOL * max(1.0, float(np.max(np.outer(an, bn))))
    err = float(np.max(np.abs(c - expected)))
    if not err <= tol:
        raise CheckFailed(f"max error {err:.3e} exceeds {tol:.3e}")


def check_training(epochs, jobs: int, expected_jobs: int, accuracy_floor: float) -> None:
    """Finite falling loss, the analytic job count, and an accuracy floor."""
    losses = [loss for _, loss, _ in epochs]
    if not losses or not all(math.isfinite(v) for v in losses):
        raise CheckFailed(f"non-finite or missing losses {losses}")
    if jobs != expected_jobs:
        raise CheckFailed(f"{jobs} estimation jobs, expected {expected_jobs}")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"loss did not fall: {losses}")
    accuracy = epochs[-1][2]
    if not accuracy >= accuracy_floor:
        raise CheckFailed(f"final accuracy {accuracy:.3f} below {accuracy_floor}")


def check_sweep(sweep_csv, correlation_json, families, levels: int) -> None:
    """Row count, finite values, and criterion 8's direction for `uniform`."""
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(families) * levels:
        raise CheckFailed(f"{len(rows)} sweep rows, expected {len(families) * levels}")
    seen = {row["family"] for row in rows}
    if seen != set(families):
        raise CheckFailed(f"sweep families {sorted(seen)}, expected {sorted(families)}")
    for k, row in enumerate(rows):
        for key, text in row.items():
            if key in ("family", "pairing"):
                continue
            if not math.isfinite(float(text)):
                raise CheckFailed(f"row {k} column {key} = {text}")
    with open(correlation_json) as fh:
        r = json.load(fh)["families"]["uniform"]["r"]
    if not r < 0.0:
        raise CheckFailed(f"uniform family Pearson r = {r}, expected < 0")
