"""The battery's power: program mutants that a check must catch.

Each mutant patches one binding of the program and is paired with the check
that must fail on it. The seed-grid mutants below pass acceptance criteria
2, 4 and 5 at masters 0 and 42, and only the element-by-element comparison
with spec.spec_product catches them. They patch `derive_seed` in the
qstacker.matmul module: the package attribute `qstacker.matmul` is the
function of that name, so the module is taken from sys.modules.
"""

import sys

import numpy as np
import pytest
from spec import spec_product

from qstacker import MatMulConfig, matmul

# each maps matmul's derive_seed(master, rows, cols) to a mutant of it
SEED_GRID_MUTANTS = {
    "one-seed-per-row": lambda derive: lambda m, i, j: derive(m, i, np.zeros_like(j)),
    "column-2k-shares-2k+1": lambda derive: lambda m, i, j: derive(m, i, j & ~1),
    "ij-shares-ji": lambda derive: lambda m, i, j: derive(m, np.minimum(i, j), np.maximum(i, j)),
}


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
