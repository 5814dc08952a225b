"""Start-up cost: the product, plan, training and entropy-sweep paths never
import scipy.

scipy.stats takes about 0.8 s to import, several times the rest of a CLI
start. Only `variance_band` needs it, and imports it on its first call;
`pearson`'s p-value is computed in the package. The probe runs in a fresh
interpreter, because this test process may already have scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
from pathlib import Path

import numpy as np

import qstacker
import qstacker.cli
import qstacker.nn
from qstacker import MatMulConfig, matmul
from qstacker.matio import write_matrix_csv

out, iris = Path(sys.argv[1]), sys.argv[2]
rng = np.random.default_rng(5)
a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
matmul(a, b, MatMulConfig(shots=1024, seed=1))
matmul(a, b, MatMulConfig(exact=True))
write_matrix_csv(out / "a.csv", a)
write_matrix_csv(out / "b.csv", b)
codes = [
    qstacker.cli.main(["matmul", "--a", str(out / "a.csv"), "--b", str(out / "b.csv"),
                       "--exact", "--out", str(out / "product")]),
    qstacker.cli.main(["plan", "--n", "4", "--dim", "4", "--budget", "48"]),
    qstacker.cli.main(["entropy-sweep", "--families", "uniform,normal", "--levels", "3",
                       "--dim", "8", "--shots", "64", "--reps", "2", "--out", str(out / "sweep")]),
]
data = qstacker.nn.ingest_iris(iris)
qstacker.nn.train(data, qstacker.nn.TrainConfig(
    shape=qstacker.nn.NetworkShape(4, 4, 3), epochs=1, shots=1024, seed=3))
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
qstacker.pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0])
after = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "before": before, "after": after}))
"""


def test_product_plan_training_and_sweep_paths_do_not_import_scipy(tmp_path, iris_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), str(iris_path)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert (tmp_path / "product" / "product.csv").is_file()
    assert (tmp_path / "sweep" / "correlation.json").is_file()
    assert result["before"] == []
    assert result["after"] == []
