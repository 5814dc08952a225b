"""The battery's power: program mutants that a check must catch.

Each mutant patches one binding of the program and is paired with the check
that must fail on it. The seed-grid mutants below pass acceptance criteria
2, 4 and 5 at masters 0 and 42, and only the element-by-element comparison
with spec.spec_product catches them. The law mutants each fail every
acceptance criterion named beside them, at masters 0 and 42, where the
unpatched program passes them all (at 42 in the acceptance suite). Each
mutant patches a binding in a module of the package by its sys.modules
entry: the package attributes `qstacker.matmul` and `qstacker.entropy` are
the functions of those names.
"""

import sys

import numpy as np
import pytest
from spec import spec_product

from qstacker import MatMulConfig, checks, matmul

# each maps matmul's derive_seed(master, rows, cols) to a mutant of it
SEED_GRID_MUTANTS = {
    "one-seed-per-row": lambda derive: lambda m, i, j: derive(m, i, np.zeros_like(j)),
    "column-2k-shares-2k+1": lambda derive: lambda m, i, j: derive(m, i, j & ~1),
    "ij-shares-ji": lambda derive: lambda m, i, j: derive(m, np.minimum(i, j), np.maximum(i, j)),
}


def _one_sign_row(random_signs):
    """random_signs with its first row's signs in every row (every batch of a sweep level)."""
    def mutant(rng, shape, out=None):
        out = np.empty(shape) if out is None else out
        out[...] = random_signs(rng, (1, shape[-1]))
        return out
    return mutant


# name -> (module, binding, mutant of the binding, the criteria that must fail on it)
LAW_MUTANTS = {
    "z_hat-halved-in-the-sweep": ("qstacker.entropy", "estimate", lambda f: lambda *a: f(*a) / 2.0, [9]),
    "one-sign-row-per-level": ("qstacker.entropy", "random_signs", _one_sign_row, [8, 9, 11]),
    "z_hat-negated-in-matmul": ("qstacker.matmul", "estimate", lambda f: lambda *a: -f(*a), [2, 4]),
    "one-seed-for-every-element": ("qstacker.matmul", "derive_seed",
                                   lambda f: lambda m, i, j: f(m, 0 * i, 0 * j), [2]),
}
KILLS = [(name, number) for name, (*_, numbers) in LAW_MUTANTS.items() for number in numbers]
MASTERS = [0, 42]


def _equals_the_spec() -> bool:
    """Whether matmul gives spec_product's bits on a 4x6 . 6x4 sampled product."""
    rng = np.random.default_rng(71)
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 4))
    r = matmul(a, b, MatMulConfig(shots=1024, seed=19))
    want = spec_product(a, b, 1024, 19)
    return all(x.tobytes() == y.tobytes() for x, y in zip((r.z_hat, r.true_overlap, r.c), want))


def test_the_engine_equals_the_spec():
    assert _equals_the_spec()


@pytest.mark.parametrize("name", list(SEED_GRID_MUTANTS))
def test_a_seed_grid_mutant_fails_the_spec(monkeypatch, name):
    module = sys.modules["qstacker.matmul"]
    monkeypatch.setattr(module, "derive_seed", SEED_GRID_MUTANTS[name](module.derive_seed))
    assert not _equals_the_spec()


# master 42 is the acceptance suite's, which runs every criterion there
@pytest.mark.parametrize("number", sorted({number for _, number in KILLS}))
def test_the_program_passes_each_killing_criterion_at_master_0(number):
    assert checks.run(number, 0)[0]


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("name, number", KILLS, ids=[f"{name}-criterion-{n}" for name, n in KILLS])
def test_a_law_mutant_fails_its_criterion(monkeypatch, name, number, master):
    module_name, binding, mutate, _ = LAW_MUTANTS[name]
    module = sys.modules[module_name]
    monkeypatch.setattr(module, binding, mutate(getattr(module, binding)))
    assert not checks.run(number, master)[0]
