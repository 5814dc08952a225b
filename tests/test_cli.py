import json

import numpy as np
import pytest

from qstacker import checks, cli, nn
from qstacker.cli import main
from qstacker.matio import read_matrix_csv, write_matrix_csv


@pytest.fixture
def matrices(tmp_path):
    rng = np.random.default_rng(61)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(pa, a)
    write_matrix_csv(pb, b)
    return a, b, pa, pb


class TestPlanCommand:
    def test_vertical_plan_json(self, capsys):
        code = main(["plan", "--n", "4", "--dim", "4", "--pattern", "vertical", "--budget", "48"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cycle_count"] == 1
        assert doc["width"] == 48

    def test_plan_file_output(self, tmp_path, capsys):
        code = main([
            "plan", "--n", "2", "--dim", "4", "--pattern", "balanced",
            "--budget", "6", "--out", str(tmp_path),
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "plan.json").read_text())
        assert doc["pattern"] == "balanced"

    def test_budget_too_small_is_usage_error(self, capsys):
        code = main(["plan", "--n", "4", "--dim", "4", "--pattern", "vertical", "--budget", "1"])
        assert code == 2
        capsys.readouterr()


class TestMatmulCommand:
    def test_exact_product_csv(self, matrices, tmp_path, capsys):
        a, b, pa, pb = matrices
        out = tmp_path / "out"
        code = main(["matmul", "--a", str(pa), "--b", str(pb), "--exact", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        product = read_matrix_csv(out / "product.csv")
        assert np.abs(product - a @ b).max() <= 1e-10
        summary = json.loads((out / "matmul_summary.json").read_text())
        assert summary["exact"] is True
        assert summary["max_abs_error"] <= 1e-10
        assert (out / "matmul.csv").read_text().startswith("i,j,z_hat,c_ij,stderr")

    def test_sampled_deterministic_outputs(self, matrices, tmp_path, capsys):
        _, _, pa, pb = matrices
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = main([
                "matmul", "--a", str(pa), "--b", str(pb), "--shots", "2048",
                "--seed", "5", "--out", str(out),
            ])
            assert code == 0
            outputs.append((out / "matmul.csv").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["matmul", "--a", str(tmp_path / "nope.csv"), "--b", str(tmp_path / "nope.csv")])
        assert code == 3
        capsys.readouterr()

    def test_env_seed_default(self, matrices, tmp_path, capsys, monkeypatch):
        _, _, pa, pb = matrices
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("AQ_SEED", "31")
        main(["matmul", "--a", str(pa), "--b", str(pb), "--shots", "512", "--out", str(out1)])
        main(["matmul", "--a", str(pa), "--b", str(pb), "--shots", "512",
              "--seed", "31", "--out", str(out2)])
        capsys.readouterr()
        assert (out1 / "matmul.csv").read_bytes() == (out2 / "matmul.csv").read_bytes()


class TestEntropySweepCommand:
    def test_writes_csv_and_correlation_json(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "entropy-sweep", "--families", "uniform,exponential", "--levels", "6",
            "--dim", "16", "--shots", "1024", "--reps", "60", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].split(",")[:9] == [
            "family", "n", "H_nats", "H_bits", "purity",
            "empirical_variance", "dividend_bound", "shots", "repetitions",
        ]
        assert len(lines) == 1 + 12
        doc = json.loads((out / "correlation.json").read_text())
        assert set(doc["families"]) == {"uniform", "exponential"}
        for stats in doc["families"].values():
            assert -1.0 <= stats["r"] <= 1.0

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        code = main(["entropy-sweep", "--families", "cauchy", "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_sweep_outputs_byte_deterministic(self, tmp_path, capsys):
        outputs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = main([
                "entropy-sweep", "--families", "uniform", "--levels", "5",
                "--dim", "16", "--shots", "512", "--reps", "50", "--seed", "9",
                "--out", str(out),
            ])
            assert code == 0
            outputs.append(
                (out / "sweep.csv").read_bytes() + (out / "correlation.json").read_bytes()
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestTrainCommand:
    def test_iris_quick_run(self, tmp_path, iris_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"shape=4,4,3\nlr=0.05\nbatch=10\nepochs=3\nmode=classical\n"
            f"seed=2\ndataset={iris_path}\n"
        )
        out = tmp_path / "train"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["final_accuracy"] <= 1.0
        report = json.loads((out / "train_report.json").read_text())
        assert report["epochs"] == 3
        epochs_csv = (out / "train_epochs.csv").read_text().splitlines()
        assert epochs_csv[0] == "epoch,train_loss,test_accuracy"
        assert len(epochs_csv) == 4

    def test_config_without_dataset_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape=4,4,3\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        capsys.readouterr()


ACCEPTANCE_NAMES = ["circuit fidelity", "estimator law", "exact-mode matmul",
                    "pattern invariance", "purity/Renyi inequality"]


class TestVerifyCommand:
    def test_healthy_build_exits_zero(self, capsys):
        code = main(["verify", "--seed", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        verdicts = [line for line in out.splitlines() if line.startswith("PASS ")]
        assert [line[5:].split(":")[0] for line in verdicts] == ACCEPTANCE_NAMES

    def test_failing_check_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "pattern_invariance", lambda master: (False, "planted"))
        code = main(["verify", "--seed", "8"])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL pattern invariance: planted" in out.splitlines()
        assert out.count("PASS ") == 4


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["entropy-sweep", "--families", "bogus"],
        ["entropy-sweep", "--families", "uniform", "--reps", "1"],
        ["plan", "--n", "0", "--dim", "4", "--budget", "48"],
        ["plan", "--n", "2", "--dim", "0", "--budget", "48"],
        ["entropy-sweep", "--families", "uniform", "--shots", "0"],
    ])
    def test_bad_arguments_exit_two(self, argv, tmp_path, capsys):
        if argv[0] == "entropy-sweep":
            argv = argv + ["--levels", "3", "--dim", "8", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_malformed_seed_environment_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("AQ_SEED", "abc")
        assert main(["verify"]) == 2
        assert "AQ_SEED" in capsys.readouterr().err

    def test_missing_matrix_file_exits_three(self, tmp_path, capsys):
        code = main(["matmul", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_malformed_config_value_exits_three(self, tmp_path, iris_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,4,3\nsplit_seed=abc\ndataset={iris_path}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "split_seed='abc'" in capsys.readouterr().err

    def test_internal_value_error_propagates(self, monkeypatch):
        def broken(args):
            raise ValueError("internal bug")

        monkeypatch.setitem(cli._COMMANDS, "verify", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["verify"])


class TestRunFileAndFlagErrors:
    @pytest.mark.parametrize("lines, key", [
        ("epoch=3\n", "epoch"),
        ("train_count=5\n", "train_count"),
    ])
    def test_unread_config_key_exits_three(self, tmp_path, iris_path, capsys, lines, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,4,3\n{lines}dataset={iris_path}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and key in err

    def test_half_count_pair_exits_three(self, tmp_path, mnist_idx_files, capsys):
        images, labels = mnist_idx_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=784,8,10\nmnist_images={images}\nmnist_labels={labels}\ntrain_count=5\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "train_count" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "0"])
    def test_refused_learning_rate_exits_three_before_any_product(
            self, tmp_path, iris_path, capsys, monkeypatch, rate):
        monkeypatch.setattr(nn, "matmul", lambda *a, **k: pytest.fail("a product ran"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,4,3\nlr={rate}\nmode=classical\ndataset={iris_path}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"lr={rate!r}" in err
        assert not (tmp_path / "train_report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["entropy-sweep", "--dim", "0"],
        ["entropy-sweep", "--levels", "0"],
        ["entropy-sweep", "--levels", "2"],
    ])
    def test_sweep_sizes_exit_two(self, argv, tmp_path, capsys):
        assert main(argv + ["--families", "uniform", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_verify_takes_no_out_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", "x"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
