import hashlib
import json

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from qstacker import MatMulConfig, checks, cli, error_budget, matmul, nn
from qstacker.cli import main
from qstacker.errors import InvalidDistribution, NoCrossing, NonFiniteInput
from qstacker.matio import read_matrix_csv, write_matrix_bin, write_matrix_csv


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

    def test_exact_product_of_norms_past_the_float_range(self, tmp_path, capsys):
        # ||A_0|| overflows float64 and ||B_0|| is tiny, but a @ b is 3e8
        pa, pb, out = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "out"
        write_matrix_bin(pa, np.full((1, 2), 1.5e308))
        write_matrix_bin(pb, np.full((2, 1), 1e-300))
        code = main(["matmul", "--a", str(pa), "--b", str(pb), "--exact", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert read_matrix_csv(out / "product.csv")[0, 0] == pytest.approx(3e8, rel=1e-12, abs=0.0)

    def test_an_overflowing_product_csv_cannot_be_read_back(self, tmp_path, capsys):
        # product.csv equals write_matrix_csv(path, result.c) only for a finite product:
        # this one writes inf, which the writer and --a both refuse
        pa, pb, out = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "out"
        write_matrix_bin(pa, np.full((1, 2), 1e308))
        write_matrix_bin(pb, np.full((2, 1), 1e308))
        assert main(["matmul", "--a", str(pa), "--b", str(pb), "--exact", "--out", str(out)]) == 0
        product = out / "product.csv"
        assert product.read_text() == "inf\n"
        with pytest.raises(NonFiniteInput):
            write_matrix_csv(tmp_path / "c.csv", np.full((1, 1), np.inf))
        capsys.readouterr()
        code = main(["matmul", "--a", str(product), "--b", str(product), "--exact",
                     "--out", str(tmp_path / "again")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {product}: matrix contains NaN or Inf\n"

    @pytest.mark.parametrize("exact", [True, False])
    def test_artifacts_hold_the_product_bit_for_bit(self, tmp_path, capsys, exact):
        """matmul.csv and product.csv against per-element references, on
        operands with a zero row, a zero column, -0.0, 5e-324, 1e16 and 1e-300."""
        rng = np.random.default_rng(62)
        a, b = rng.normal(size=(5, 9)), rng.normal(size=(9, 6))
        a[1] = 0.0
        a[2] = 0.0
        a[2, 0] = 5e-324  # row 2 of c is subnormal or a signed zero
        a[3, 0] = 1e16
        a[4] *= 1e-300
        b[:, 1] = 0.0
        b[0, 2] = -0.0
        b[:, 3] *= 1e-300
        pa, pb, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "out"
        write_matrix_csv(pa, a)
        write_matrix_csv(pb, b)
        mode = ["--exact"] if exact else []
        assert main(["matmul", "--a", str(pa), "--b", str(pb), "--shots", "1024", "--seed", "8",
                     *mode, "--out", str(out)]) == 0
        capsys.readouterr()
        r = matmul(a, b, MatMulConfig(shots=1024, seed=8, exact=exact))
        expected = ["i,j,z_hat,c_ij,stderr"]
        for i in range(5):
            for j in range(6):
                z, c = float(r.z_hat[i, j]), float(r.c[i, j])
                se = 0.0 if exact else float(error_budget(float(r.norm_products[i, j]), r.shots, mu=z))
                expected.append(f"{i},{j},{z!r},{c!r},{se!r}")
        assert (out / "matmul.csv").read_text() == "\n".join(expected) + "\n"
        write_matrix_csv(tmp_path / "reference.csv", r.c)
        assert (out / "product.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert read_matrix_csv(out / "product.csv").tobytes() == r.c.tobytes()

    @pytest.mark.parametrize("exact", [True, False])
    def test_norm_products_past_the_float_range_exit_zero(self, tmp_path, capsys, exact):
        # ||A_0|| * ||B_0|| is about 2e308; warnings are errors in this suite
        pa, pb, out = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "out"
        write_matrix_bin(pa, np.full((1, 2), 1e308))
        write_matrix_bin(pb, np.array([[1.0], [-1.0]]))
        mode = ["--exact"] if exact else ["--shots", "1024"]
        assert main(["matmul", "--a", str(pa), "--b", str(pb), *mode, "--out", str(out)]) == 0
        capsys.readouterr()
        assert np.isfinite(read_matrix_csv(out / "product.csv")).all()
        stderr = float((out / "matmul.csv").read_text().splitlines()[1].rsplit(",", 1)[1])
        assert (stderr == 0.0) if exact else (1e306 < stderr < 1e307)

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


class TestParser:
    def test_main_reuses_one_parser(self, matrices, tmp_path, capsys, monkeypatch):
        _, _, pa, pb = matrices

        def rebuilt():
            raise AssertionError("main built a second parser")

        main(["plan", "--n", "2", "--dim", "4", "--budget", "6"])
        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert main(["matmul", "--a", str(pa), "--b", str(pb), "--exact", "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_no_option_carries_over_between_calls(self, matrices, tmp_path, capsys, monkeypatch):
        _, _, pa, pb = matrices
        monkeypatch.delenv("AQ_SEED", raising=False)
        first, second, fresh = tmp_path / "first", tmp_path / "second", tmp_path / "fresh"
        assert main(["matmul", "--a", str(pa), "--b", str(pb), "--exact", "--seed", "9",
                     "--pattern", "vertical", "--budget", "40", "--out", str(first)]) == 0
        assert main(["matmul", "--a", str(pa), "--b", str(pb), "--shots", "512",
                     "--out", str(second)]) == 0
        capsys.readouterr()
        summary = json.loads((second / "matmul_summary.json").read_text())
        assert summary["exact"] is False and summary["pattern"] == "batch"
        r = matmul(*matrices[:2], MatMulConfig(shots=512, seed=0))
        cli.write_result_csv(r, fresh)
        assert (second / "matmul.csv").read_bytes() == fresh.read_bytes()

    def test_help_and_usage_errors_repeat(self, capsys):
        outputs = []
        for _ in range(2):
            for argv in (["--help"], ["matmul", "--help"], ["matmul"], ["plan", "--n", "x"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                captured = capsys.readouterr()
                outputs.append((argv, exc.value.code, captured.out, captured.err))
        assert outputs[:4] == outputs[4:]
        assert [code for _, code, _, _ in outputs[:4]] == [0, 0, 2, 2]
        assert outputs[0][2] == cli.build_parser().format_help()
        assert "the following arguments are required: --a, --b" in outputs[2][3]


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

    @pytest.mark.parametrize("error, code", [(NoCrossing, 0), (InvalidDistribution, 3)])
    def test_only_a_missing_crossing_is_skipped(self, tmp_path, capsys, monkeypatch, error, code):
        """A pair whose curves do not cross is left out of correlation.json;
        any other error from crossing_point ends the command."""
        def planted(a, b):
            raise error("planted")

        monkeypatch.setattr(cli, "crossing_point", planted)
        argv = ["entropy-sweep", "--families", "uniform,exponential", "--levels", "3",
                "--dim", "8", "--shots", "64", "--reps", "10", "--out", str(tmp_path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == "data error: planted\n"
        else:
            assert json.loads((tmp_path / "correlation.json").read_text())["crossing_points"] == []

    @pytest.mark.parametrize("families", ["uniform,uniform", ","], ids=["repeated", "empty"])
    def test_each_family_must_be_named_once(self, tmp_path, capsys, families):
        """A repeated family would be swept twice but reported once; an empty
        list would write a header-only sweep.csv. Both are refused first."""
        out = tmp_path / "out"
        assert main(["entropy-sweep", "--families", families, "--levels", "3", "--dim", "8",
                     "--shots", "64", "--reps", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --families") and repr(families) in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--levels", "2"), ("--dim", "1"), ("--reps", "1")])
    def test_a_refused_size_leaves_no_output_directory(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        argv = ["entropy-sweep", "--families", "uniform", "--levels", "3", "--dim", "8",
                "--shots", "64", "--reps", "10", "--out", str(out)]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

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


def refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


class TestStrictJson:
    """A non-finite float is written as null, in every JSON file and printed line."""

    def test_training_without_test_samples_reports_a_null_accuracy(self, tmp_path, capsys):
        images, labels = tmp_path / "images-idx", tmp_path / "labels-idx"
        write_idx_images(images, np.random.default_rng(3).integers(0, 256, size=(48, 2, 2)))
        write_idx_labels(labels, np.arange(48) % 3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,2,3\nepochs=2\nmode=classical\nmnist_images={images}\n"
                       f"mnist_labels={labels}\ntrain_count=40\ntest_count=0\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        report = json.loads((tmp_path / "train_report.json").read_text(), parse_constant=refuse_constant)
        assert printed["final_accuracy"] is None and report["final_accuracy"] is None
        assert report["epochs"] == 2

    def test_an_overflowing_product_reports_null_errors_without_a_warning(self, tmp_path, capsys):
        # [[1e308, 1e308]] @ [[1e308], [1e308]] overflows in the engine and in a @ b;
        # warnings are errors in this suite
        pa, pb, out = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "out"
        write_matrix_bin(pa, np.full((1, 2), 1e308))
        write_matrix_bin(pb, np.full((2, 1), 1e308))
        assert main(["matmul", "--a", str(pa), "--b", str(pb), "--exact", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        summary = json.loads((out / "matmul_summary.json").read_text(), parse_constant=refuse_constant)
        assert printed == summary
        assert summary["max_abs_error"] is None and summary["mean_abs_error"] is None
        assert (out / "product.csv").read_text() == "inf\n"


ACCEPTANCE_NAMES = ["circuit fidelity", "estimator law", "exact-mode matmul",
                    "sampled matmul bound", "pattern invariance", "planner formulas",
                    "purity/Renyi inequality", "entropy dividend direction", "dividend bound",
                    "concentration check", "crossing point", "gradient check"]


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
        assert out.count("PASS ") == 11


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

    @pytest.mark.parametrize("command", ["matmul", "entropy-sweep"])
    def test_shots_past_the_binomial_limit_exit_two(self, matrices, tmp_path, capsys, command):
        _, _, pa, pb = matrices
        argv = {"matmul": ["matmul", "--a", str(pa), "--b", str(pb)],
                "entropy-sweep": ["entropy-sweep", "--levels", "3", "--dim", "8"]}[command]
        assert main(argv + ["--shots", str(1 << 63), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("usage error: shots must be <= ")

    def test_run_file_shots_past_the_binomial_limit_exit_three(self, tmp_path, iris_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,4,3\nshots={1 << 63}\ndataset={iris_path}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("data error: bad train config: shots must be <= ")

    def test_malformed_config_value_exits_three(self, tmp_path, iris_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,4,3\nsplit_seed=abc\ndataset={iris_path}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "split_seed='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("case, code", [
        ("budget-too-small", 2),
        ("unknown-family", 2),
        ("bin-too-long", 3),
        ("bin-too-short", 3),
        ("csv-with-nan", 3),
        ("shapes-do-not-chain", 3),
        ("idx-bad-magic", 3),
        ("idx-too-long", 3),
    ])
    def test_each_reachable_error_maps_to_its_exit_code(self, tmp_path, capsys, case, code):
        """One bad input per error a command can meet; exit 2 is InvalidArgument
        and exit 3 every other QStackerError."""
        ok = tmp_path / "ok.csv"
        write_matrix_csv(ok, np.eye(2))
        bad = tmp_path / "bad.bin"
        write_matrix_bin(bad, np.ones((2, 2)))
        if case == "bin-too-long":
            bad.write_bytes(bad.read_bytes() + bytes(8))
        elif case == "bin-too-short":
            bad.write_bytes(bad.read_bytes()[:-8])
        elif case == "csv-with-nan":
            bad = tmp_path / "bad.csv"
            bad.write_text("1.0,nan\n0.0,1.0\n")
        elif case == "shapes-do-not-chain":
            write_matrix_bin(bad, np.ones((2, 3)))
        images, labels = tmp_path / "images-idx", tmp_path / "labels-idx"
        write_idx_images(images, np.zeros((12, 2, 2)))
        write_idx_labels(labels, np.arange(12) % 3)
        if case == "idx-bad-magic":
            images.write_bytes(b"\0\0\x08\x01" + images.read_bytes()[4:])
        elif case == "idx-too-long":
            labels.write_bytes(labels.read_bytes() + b"\0\0")
        run = tmp_path / "run.cfg"
        run.write_text(f"shape=4,2,3\nepochs=1\nmode=classical\nmnist_images={images}\n"
                       f"mnist_labels={labels}\n")
        argv = {
            "budget-too-small": ["plan", "--n", "2", "--dim", "4", "--budget", "1"],
            "unknown-family": ["entropy-sweep", "--families", "cauchy", "--out", str(tmp_path)],
            "idx-bad-magic": ["train", "--config", str(run), "--out", str(tmp_path)],
            "idx-too-long": ["train", "--config", str(run), "--out", str(tmp_path)],
        }.get(case, ["matmul", "--a", str(bad), "--b", str(ok), "--exact", "--out", str(tmp_path)])
        assert main(argv) == code
        prefix = {2: "usage error: ", 3: "data error: "}[code]
        assert capsys.readouterr().err.startswith(prefix)

    def test_train_never_reads_the_seed_environment(self, tmp_path, iris_path, monkeypatch, capsys):
        monkeypatch.setenv("AQ_SEED", "abc")  # malformed: reading it would exit 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shape=4,4,3\nepochs=1\nmode=classical\ndataset={iris_path}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["matmul", "entropy-sweep", "verify"])
    def test_seeded_commands_read_the_seed_environment(self, matrices, tmp_path, monkeypatch,
                                                       capsys, command):
        """$AQ_SEED is read when --seed is absent, and only then."""
        _, _, pa, pb = matrices
        monkeypatch.setenv("AQ_SEED", "abc")
        argv = {"matmul": ["matmul", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path)],
                "entropy-sweep": ["entropy-sweep", "--levels", "3", "--dim", "8", "--shots", "64",
                                  "--reps", "10", "--out", str(tmp_path)],
                "verify": ["verify"]}[command]
        assert main(argv) == 2
        assert "AQ_SEED" in capsys.readouterr().err
        assert main(argv + ["--seed", "7"]) == 0
        capsys.readouterr()

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


def golden_hashes(root, iris_path, run) -> dict:
    """sha256 of every artifact and of the printed output of fixed-seed runs:
    `plan`, `matmul --exact` on CSV and .bin operands with a zero row and a
    zero column, a sampled `matmul --check-classical` at 1024 shots on CSV
    operands with a zero row and a zero column, `entropy-sweep` under both
    pairings and at a shot count that is not a power of two, a classical `train` on IRIS and a quantum `train` on an IDX
    pair. run(argv) runs the CLI and returns (exit code, stdout).
    train_report.json is hashed without its wall_clock_s line, the one value
    that differs between runs."""
    rng = np.random.default_rng(71)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
    a[2] = 0.0
    b[:, 1] = 0.0
    write_matrix_csv(root / "a.csv", a)
    write_matrix_csv(root / "b.csv", b)
    write_matrix_bin(root / "a.bin", a * 1e200)
    write_matrix_bin(root / "b.bin", b * 1e-200)
    sa, sb = rng.normal(size=(6, 7)), rng.normal(size=(7, 5))
    sa[4] = 0.0
    sb[:, 0] = 0.0
    write_matrix_csv(root / "sa.csv", sa)
    write_matrix_csv(root / "sb.csv", sb)
    write_idx_images(root / "images.idx", rng.integers(0, 256, size=(90, 8, 8)))
    write_idx_labels(root / "labels.idx", rng.integers(0, 3, size=90))
    (root / "run.cfg").write_text(f"shape=4,4,3\nlr=0.05\nbatch=10\nepochs=3\nmode=classical\n"
                                  f"seed=2\ndataset={iris_path}\n")
    (root / "idx.cfg").write_text(f"shape=16,4,3\nlr=0.05\nbatch=10\nepochs=4\nshots=512\n"
                                  f"mode=quantum\nseed=3\nmnist_images={root / 'images.idx'}\n"
                                  f"mnist_labels={root / 'labels.idx'}\ndownsample=2\nlimit=70\n"
                                  f"train_count=50\ntest_count=20\nsplit_seed=5\n")
    runs = {
        "plan": ["plan", "--n", "3", "--dim", "4", "--pattern", "balanced", "--budget", "10"],
        "matmul-csv": ["matmul", "--a", str(root / "a.csv"), "--b", str(root / "b.csv"),
                       "--exact", "--seed", "3"],
        "matmul-bin": ["matmul", "--a", str(root / "a.bin"), "--b", str(root / "b.bin"),
                       "--exact", "--pattern", "horizontal", "--budget", "8"],
        "sweep-resigned": ["entropy-sweep", "--families", "uniform,exponential,interpolated",
                           "--levels", "4", "--dim", "8", "--shots", "256", "--reps", "20",
                           "--seed", "11", "--pairing", "resigned"],
        "sweep-independent": ["entropy-sweep", "--families", "normal,chisquare",
                              "--levels", "3", "--dim", "8", "--shots", "256", "--reps", "20",
                              "--seed", "12", "--pairing", "independent"],
        "sweep-shots-1000": ["entropy-sweep", "--families", "uniform,exponential,interpolated",
                             "--levels", "4", "--dim", "8", "--shots", "1000", "--reps", "20",
                             "--seed", "13", "--pairing", "resigned"],
        "matmul-sampled": ["matmul", "--a", str(root / "sa.csv"), "--b", str(root / "sb.csv"),
                           "--shots", "1024", "--seed", "17", "--check-classical"],
        "train": ["train", "--config", str(root / "run.cfg")],
        "train-idx": ["train", "--config", str(root / "idx.cfg")],
    }
    hashes = {}
    for name, argv in runs.items():
        out = root / name
        code, stdout = run([*argv, "--out", str(out)])
        assert code == 0, name
        hashes[f"{name}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "train_report.json":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if b'"wall_clock_s"' not in line)
            hashes[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return hashes


# recorded at the commit before the artifact writers moved into qstacker.cli;
# the matmul-sampled and train-idx entries at the commit before sample_hadamard
# stopped clamping p0; the sweep-shots-1000 entries once variance_sweep took
# its z from hadamard.estimate
GOLDEN = {
    "plan/stdout":
        "3d18bc24a140844a6a9d68215cadddeb65a33d030674221640f641a89515ab27",
    "plan/plan.json":
        "3d18bc24a140844a6a9d68215cadddeb65a33d030674221640f641a89515ab27",
    "matmul-csv/stdout":
        "addf8c29f16838ee540ad8b3c0499e72e95af36a8860dd2a09a1970e55b294e6",
    "matmul-csv/matmul.csv":
        "3e319eb4acac2dbc7a7fa35ef82181f5e6618b4c72e266fb67179f5a45279b8e",
    "matmul-csv/matmul_summary.json":
        "5c376502e165df8381f534ab80aaf3ccb8733767ee624dbdf73b17bc1665e700",
    "matmul-csv/product.csv":
        "4019d14416b293e4e3c17dec8ae7f9c5a9cfb2fad1e8bbb32748a50d759a5856",
    "matmul-bin/stdout":
        "1ccbd9cab156d1157f433db3b1b6b481dca38b65fe7d9474e7ee376774cf5f88",
    "matmul-bin/matmul.csv":
        "ede4890fb245325995104e157312f14089497c211a10125e1f3dcbe2364865ca",
    "matmul-bin/matmul_summary.json":
        "e0257660058f5551d64a3a7d595a57f3a7637d9caf38995e48641be067fb81b2",
    "matmul-bin/product.csv":
        "87465dc42c51b6c62e7921b211e7364d0604fa8ff1c5353f538138bc11570339",
    "sweep-shots-1000/stdout":
        "0b8ae30ac83ed085b43ff1d3984da8fb27009c7e612519f0b4fa6c4f5653de7b",
    "sweep-shots-1000/correlation.json":
        "5eaa612330e5388bcad87c90c98a02da16aab751f129671e74807055f5e40aae",
    "sweep-shots-1000/sweep.csv":
        "717665613f4d206407bd7add1da62f5a2a6c378fcf2c38824a6ade5856177fc8",
    "matmul-sampled/stdout":
        "12f745cafc118b2f0965c0da871b38ffff5efa6b3635c1556ffec31c436a96fa",
    "matmul-sampled/matmul.csv":
        "b110c6a3fbd4bfe3fec12c6ecc10dc68c5dcd5972eeaa47e1045f9dc31240a26",
    "matmul-sampled/matmul_summary.json":
        "cf2697c6a5f8777c30ace006edcc0f1bfeb4a3fd661c6c5f0a79707a518e2d8e",
    "matmul-sampled/product.csv":
        "e25eb263c9ec6d34f3ea00a2caf94454d0102ab90656404df8a49ca3cca047b9",
    "sweep-resigned/stdout":
        "1455290990394734bf59105471af4415a71193e7c8e9d925219fcef4ef56b2a6",
    "sweep-resigned/correlation.json":
        "47b81aafd39c9fa1bdb937de4c8407c806f11c2600ae05a2dce3afe085573ab1",
    "sweep-resigned/sweep.csv":
        "8e7eed89ca8650af8456448d3b7fb8436099cc186f6437b82c942e5369edf60a",
    "sweep-independent/stdout":
        "f77af94c10215ffd59e2768676b125a301501444e6617afb35419c7adde58a06",
    "sweep-independent/correlation.json":
        "a4d470adec8f697db73d7ee828656d2151bc12f71cf186c974a16a611433e49b",
    "sweep-independent/sweep.csv":
        "85e5c58f9fb12622effec55e13d6c49dfd284ca5a5dbee56f181923c720a8574",
    "train/stdout":
        "6f41fe854640d1bb978155a6b3a8b5f690a00419c55d78b2c636481eba37073c",
    "train/train_epochs.csv":
        "167920aebb4302030f39be1a7c8247313a32c102a955c6fa7c419986152d64a7",
    "train/train_report.json":
        "4c9431cb87e3a60f9add74b576b8375171f32763ebd5777a2086e270b5f43d05",
    "train-idx/stdout":
        "2ddc086abe797c0ef8110db4246fad13ad5c98d3d8c986cd76ce0696967f354b",
    "train-idx/train_epochs.csv":
        "5473e15e799850858b3dbb16e4a0dbddfabf50bf913ae61204198c31ba44d2e2",
    "train-idx/train_report.json":
        "61b55aa2b7d8b64948101d01e46d78651dcd47d71d7f3401302ea0026898e113",
}


def test_artifacts_match_the_recorded_bytes(tmp_path, iris_path, capsys):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    assert golden_hashes(tmp_path, iris_path, run) == GOLDEN
