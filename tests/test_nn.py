import dataclasses
import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from qstacker import (
    Dataset,
    Model,
    NetworkShape,
    TrainConfig,
    derive_seed,
    evaluate,
    forward,
    ingest_iris,
    ingest_mnist_idx,
    init_model,
    train,
)
from qstacker import nn
from qstacker.errors import EmptyDataset, InvalidArgument, NonFiniteInput, ParseError, ShapeMismatch
from qstacker.matio import read_matrix_csv
from qstacker.nn import (
    _TAG_EVAL,
    CLASSICAL,
    QUANTUM,
    SPLIT_SEED,
    _loss_and_grads,
    load_run,
    parse_train_config,
    sigmoid,
    split_dataset,
    train_config_from_dict,
)


def tiny_dataset(seed=0, samples=24, dims=4, classes=3):
    """Linearly separable-ish synthetic classes."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(classes, dims))
    labels = np.repeat(np.arange(classes), samples // classes)
    features = centers[labels] + rng.normal(scale=0.4, size=(len(labels), dims))
    return split_dataset(features, labels, split_seed=7)


class TestForward:
    def test_zero_weights_zero_logits_any_mode(self):
        model = Model(w1=np.zeros((4, 4)), w2=np.zeros((3, 4)))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        for mode in (CLASSICAL, QUANTUM):
            logits, hidden, _ = forward(model, x, mode=mode, shots=256, seed=1)
            assert np.array_equal(logits, np.zeros((3, 1)))
            assert np.allclose(hidden, 0.5)  # sigmoid(0)

    def test_classical_matches_plain_arithmetic(self):
        rng = np.random.default_rng(4)
        model = Model(w1=rng.normal(size=(6, 5)), w2=rng.normal(size=(2, 6)))
        x = rng.normal(size=(3, 5))
        logits, hidden, _ = forward(model, x, mode=CLASSICAL, seed=5)
        ref_hidden = sigmoid(model.w1 @ x.T)
        assert np.allclose(hidden, ref_hidden, atol=1e-10)
        assert np.allclose(logits, model.w2 @ ref_hidden, atol=1e-10)

    def test_sampled_forward_within_four_sigma(self):
        rng = np.random.default_rng(6)
        model = Model(w1=rng.normal(size=(4, 4)), w2=rng.normal(size=(3, 4)))
        x = rng.normal(size=4)
        shots = 16384
        lq, hq, jobs = forward(model, x, mode=QUANTUM, shots=shots, seed=7)
        lc, hc, _ = forward(model, x, mode=CLASSICAL, seed=7)
        assert jobs == 4 + 3
        z1_bound = 4 * np.linalg.norm(model.w1, axis=1) * np.linalg.norm(x) / np.sqrt(shots)
        # pre-activations differ within 4 sigma; sigmoid contracts distances
        assert np.all(np.abs(hq[:, 0] - hc[:, 0]) <= z1_bound + 1e-12)
        l_bound = 4 * np.linalg.norm(model.w2, axis=1) * np.linalg.norm(hq[:, 0]) / np.sqrt(shots)
        ref_logits = model.w2 @ hq  # same hidden, isolate second-layer noise
        assert np.all(np.abs(lq[:, 0] - ref_logits[:, 0]) <= l_bound + 1e-12)

    def test_shape_mismatch(self):
        model = Model(w1=np.zeros((4, 4)), w2=np.zeros((3, 4)))
        with pytest.raises(ShapeMismatch):
            forward(model, np.zeros(5))
        # a W2 that does not chain with W1 is refused by the second product
        unchained = Model(w1=np.zeros((4, 4)), w2=np.zeros((3, 5)))
        with pytest.raises(ShapeMismatch, match=r"cannot multiply \(3, 5\) by \(4, 1\)"):
            forward(unchained, np.zeros(4))

    def test_unknown_mode_raises_before_any_job(self, monkeypatch):
        import qstacker.stacking

        dispatched = []
        monkeypatch.setattr(qstacker.stacking, "sample_hadamard", lambda *args: dispatched.append(args))
        model = Model(w1=np.ones((4, 4)), w2=np.ones((3, 4)))
        data = tiny_dataset()
        with pytest.raises(ValueError, match="mode must be one of classical, quantum, got 'Classical'"):
            forward(model, np.ones(4), mode="Classical")
        with pytest.raises(ValueError, match="mode must be one of classical, quantum, got 'sampled'"):
            evaluate(model, data, mode="sampled")
        assert dispatched == []


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(8)
        for trial in range(4):
            shape = NetworkShape(3, 4, 3)
            model = init_model(shape, seed=trial)
            xb = rng.normal(size=(6, 3))
            y = rng.integers(0, 3, size=6)
            loss, dw1, dw2, _ = _loss_and_grads(model, xb, y, CLASSICAL, 64, 0)
            h = 1e-6
            for w, dw in ((model.w1, dw1), (model.w2, dw2)):
                num = np.zeros_like(w)
                for idx in np.ndindex(w.shape):
                    orig = w[idx]
                    w[idx] = orig + h
                    lp = _loss_and_grads(model, xb, y, CLASSICAL, 64, 0)[0]
                    w[idx] = orig - h
                    lm = _loss_and_grads(model, xb, y, CLASSICAL, 64, 0)[0]
                    w[idx] = orig
                    num[idx] = (lp - lm) / (2 * h)
                rel = np.linalg.norm(dw - num) / max(np.linalg.norm(dw), np.linalg.norm(num))
                assert rel <= 1e-5


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"shots": 2.5}, {"shots": "7"}, {"shots": 0}, {"seed": 1.5}, {"seed": "7"}],
    )
    def test_bad_shots_or_seed_refused_at_construction(self, kwargs):
        with pytest.raises(InvalidArgument):
            TrainConfig(shape=NetworkShape(4, 4, 3), **kwargs)

    @pytest.mark.parametrize(
        "rate", [float("nan"), float("inf"), float("-inf"), "0.1", None, 0, 0.0, -0.5],
    )
    def test_learning_rate_must_be_a_finite_positive_number(self, rate):
        with pytest.raises(InvalidArgument, match="learning_rate"):
            TrainConfig(shape=NetworkShape(4, 4, 3), learning_rate=rate)

    @pytest.mark.parametrize("rate", [1, 0.05, np.float32(0.25), 1e-300])
    def test_finite_positive_learning_rates_are_kept(self, rate):
        assert TrainConfig(shape=NetworkShape(4, 4, 3), learning_rate=rate).learning_rate is rate

    def test_numpy_integers_become_ints(self):
        cfg = TrainConfig(shape=NetworkShape(4, 4, 3), shots=np.int64(64), seed=np.int32(-3))
        assert (cfg.shots, cfg.seed) == (64, -3)
        assert type(cfg.shots) is int and type(cfg.seed) is int


class TestTrain:
    def test_deterministic_given_seed(self):
        data = tiny_dataset()
        cfg = TrainConfig(
            shape=NetworkShape(4, 4, 3), batch_size=4, epochs=2, seed=12,
            forward_mode=QUANTUM, shots=512,
        )
        m1, _ = train(data, cfg)
        m2, _ = train(data, cfg)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.w2, m2.w2)

    def test_single_sample_update_does_not_increase_loss(self):
        features = np.array([[1.0, -0.5, 0.25, 2.0]])
        labels = np.array([1])
        data = Dataset(
            features=features, labels=labels,
            train_idx=np.array([0]), test_idx=np.array([], dtype=int),
            split_seed=0, n_classes=2,
        )
        cfg = TrainConfig(
            shape=NetworkShape(4, 3, 2), batch_size=1, epochs=2,
            learning_rate=0.01, seed=13, forward_mode=CLASSICAL,
        )
        _, report = train(data, cfg)
        losses = [e[1] for e in report.epochs]
        assert losses[1] <= losses[0] + 1e-12

    def test_learns_separable_data(self):
        data = tiny_dataset(seed=3)
        cfg = TrainConfig(
            shape=NetworkShape(4, 4, 3), batch_size=4, epochs=120,
            learning_rate=0.05, seed=14, forward_mode=CLASSICAL,
        )
        _, report = train(data, cfg)
        assert report.final_accuracy >= 0.8

    def test_quantum_mode_counts_jobs(self):
        data = tiny_dataset()
        cfg = TrainConfig(
            shape=NetworkShape(4, 4, 3), batch_size=4, epochs=1, seed=15,
            forward_mode=QUANTUM, shots=128,
        )
        _, report = train(data, cfg)
        assert report.quantum_jobs > 0

    @pytest.mark.parametrize("mode", [CLASSICAL, QUANTUM])
    def test_recorded_accuracy_is_evaluate_at_the_epoch_seed(self, mode):
        # four shots make quantum accuracy depend on the evaluation seed
        data = tiny_dataset(seed=5, samples=300)
        cfg = TrainConfig(
            shape=NetworkShape(4, 4, 3), batch_size=10, epochs=1, seed=18,
            forward_mode=mode, shots=4,
        )
        model, report = train(data, cfg)
        expected = evaluate(model, data, mode, 4, derive_seed(18, _TAG_EVAL, 0))
        assert report.epochs[0][2] == expected == report.final_accuracy
        if mode == QUANTUM:
            assert evaluate(model, data, mode, 4, derive_seed(18, _TAG_EVAL, 1)) != expected

    def test_empty_test_split_records_nan(self):
        data = tiny_dataset()
        data.test_idx = np.array([], dtype=int)
        _, report = train(data, TrainConfig(shape=NetworkShape(4, 4, 3), epochs=2,
                                            forward_mode=CLASSICAL))
        assert all(math.isnan(acc) for _, _, acc in report.epochs)

    def test_empty_dataset(self):
        data = Dataset(
            features=np.zeros((1, 4)), labels=np.zeros(1, dtype=int),
            train_idx=np.array([], dtype=int), test_idx=np.array([0]),
            split_seed=0, n_classes=1,
        )
        with pytest.raises(EmptyDataset):
            train(data, TrainConfig(shape=NetworkShape(4, 2, 2)))
        # labels split_dataset refuses rather than wraps (-1) or truncates (1.7)
        for labels in ([-1, 0, 1] * 4, [0.0, 1.7, 2.2] * 4):
            with pytest.raises(InvalidArgument, match="labels must be"):
                split_dataset(np.zeros((12, 4)), labels, split_seed=0)


class TestSplitDataset:
    @pytest.mark.parametrize("features", [np.arange(10.0), np.zeros((10, 2, 2)), np.array(3.0)],
                             ids=["1-D", "3-D", "0-d"])
    def test_features_must_be_a_matrix(self, features):
        # a 1-D vector once passed here and failed later in train with IndexError
        with pytest.raises(ShapeMismatch, match="expected a 2-D feature matrix"):
            split_dataset(features, np.array([0, 1] * 5), 1)

    @pytest.mark.parametrize("features, labels", [
        (np.zeros((0, 4)), np.array([], dtype=int)),
        (np.zeros((0, 4)), np.array([0, 1] * 5)),
        (np.zeros((10, 4)), np.array([], dtype=int)),
        (np.zeros((9, 4)), np.array([0, 1] * 5)),
    ], ids=["both-empty", "no-features", "no-labels", "misaligned"])
    def test_no_samples_or_misaligned_is_an_empty_dataset(self, features, labels):
        with pytest.raises(EmptyDataset, match="nonempty and aligned"):
            split_dataset(features, labels, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_features_must_be_finite(self, value):
        features = np.zeros((10, 4))
        features[3, 2] = value
        for counts in (None, (6, 4)):
            with pytest.raises(NonFiniteInput, match="feature matrix contains NaN or Inf"):
                split_dataset(features, np.array([0, 1] * 5), 1, counts=counts)


# recorded before matmul's per-call work (one normalization pass over A and
# B transposed, the array seed grid, broadcasts and map-driven job loops)
IRIS_TRAINING_SHA = "5a2dfea4f91dacae12f2834e27b071d54c900bd04dc4d8c3a6a65164715ad4da"


def test_quantum_iris_training_is_pinned(iris_path):
    # the benchmark's train-iris settings, two epochs: every weight bit, every
    # epoch record and the job count come out of the sampled forward products
    cfg = TrainConfig(shape=NetworkShape(4, 4, 3), batch_size=10, learning_rate=0.1,
                      epochs=2, shots=16384, seed=4005, forward_mode=QUANTUM)
    model, report = train(ingest_iris(iris_path, split_seed=77), cfg)
    digest = hashlib.sha256(model.w1.tobytes() + model.w2.tobytes())
    digest.update(repr((report.epochs, report.quantum_jobs)).encode())
    assert report.quantum_jobs == 2 * 150 * (4 + 3)
    assert digest.hexdigest() == IRIS_TRAINING_SHA


@pytest.mark.slow
class TestNoiseRobustnessTrend:
    def test_iris_accuracy_non_decreasing_in_shots(self, iris_path):
        # paired design: each seed shares one split and init across shot
        # levels, so the comparison isolates forward-pass sampling noise
        shot_levels = (256, 4096, 16384)
        accs = {s: [] for s in shot_levels}
        from qstacker import derive_seed

        for k in range(5):
            seed = derive_seed(88, k)
            data = ingest_iris(iris_path, split_seed=seed)
            for shots in shot_levels:
                cfg = TrainConfig(
                    shape=NetworkShape(4, 4, 3), batch_size=10, learning_rate=0.01,
                    epochs=250, shots=shots, seed=seed, forward_mode=QUANTUM,
                )
                _, rep = train(data, cfg)
                accs[shots].append(rep.final_accuracy)
        medians = [float(np.median(accs[s])) for s in shot_levels]
        assert medians[0] <= medians[1] + 1e-12
        assert medians[1] <= medians[2] + 1e-12


class TestEvaluate:
    def test_zero_model_predicts_first_class(self):
        data = tiny_dataset()
        model = Model(w1=np.zeros((4, 4)), w2=np.zeros((3, 4)))
        acc = evaluate(model, data, mode=CLASSICAL)
        prior = float(np.mean(data.labels[data.test_idx] == 0))
        assert acc == pytest.approx(prior)

    def test_separating_fixture_model(self):
        # one-hot features, diagonal weights: class c has the largest logit
        features = np.eye(3)
        labels = np.arange(3)
        data = Dataset(
            features=features, labels=labels, train_idx=np.arange(3),
            test_idx=np.arange(3), split_seed=0, n_classes=3,
        )
        model = Model(w1=np.eye(3) * 6.0, w2=np.eye(3))
        assert evaluate(model, data, mode=CLASSICAL) == 1.0

    def test_matches_independent_confusion_matrix(self):
        data = tiny_dataset(seed=9)
        cfg = TrainConfig(
            shape=NetworkShape(4, 4, 3), batch_size=4, epochs=30,
            learning_rate=0.05, seed=16, forward_mode=CLASSICAL,
        )
        model, _ = train(data, cfg)
        acc = evaluate(model, data, mode=CLASSICAL)
        confusion = np.zeros((3, 3), dtype=int)
        for idx in data.test_idx:
            z = model.w1 @ data.features[idx]
            h = 1.0 / (1.0 + np.exp(-z))
            pred = int(np.argmax(model.w2 @ h))
            confusion[data.labels[idx], pred] += 1
        assert acc == pytest.approx(np.trace(confusion) / confusion.sum())


class TestIrisIngest:
    def test_shape_and_classes(self, iris_path):
        data = ingest_iris(iris_path)
        assert data.features.shape == (150, 4)
        assert data.n_classes == 3
        assert sorted(np.unique(data.labels)) == [0, 1, 2]

    def test_standardization(self, iris_path):
        data = ingest_iris(iris_path)
        assert np.all(np.abs(data.features.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(data.features.var(axis=0) - 1.0) <= 1e-9)

    def test_split_is_stratified_80_20(self, iris_path):
        data = ingest_iris(iris_path)
        assert len(data.train_idx) == 120
        assert len(data.test_idx) == 30
        for c in range(3):
            assert np.sum(data.labels[data.test_idx] == c) == 10

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ParseError):
            ingest_iris(bad)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_nonfinite_feature_names_the_file(self, tmp_path, iris_path, value):
        lines = Path(iris_path).read_text().splitlines()
        features = lines[7].split(",")
        lines[7] = ",".join([value, *features[1:]])
        bad = tmp_path / "iris.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteInput, match=f"^{re.escape(str(bad))}: feature matrix contains NaN or Inf$"):
            ingest_iris(bad)


class TestMnistIngest:
    def test_parse_counts_and_scaling(self, mnist_idx_files):
        images, labels = mnist_idx_files
        features, y = ingest_mnist_idx(images, labels)
        assert features.shape == (800, 784)
        assert y.shape == (800,)
        assert features.min() >= 0.0 and features.max() <= 1.0

    def test_downsample_and_limit(self, mnist_idx_files):
        images, labels = mnist_idx_files
        features, y = ingest_mnist_idx(images, labels, downsample=2, limit=100)
        assert features.shape == (100, 196)
        assert len(y) == 100

    def test_pooling_is_block_average(self, mnist_idx_files):
        images, labels = mnist_idx_files
        full, _ = ingest_mnist_idx(images, labels, limit=1)
        pooled, _ = ingest_mnist_idx(images, labels, downsample=2, limit=1)
        img = full.reshape(28, 28)
        blocks = img.reshape(14, 2, 14, 2).mean(axis=(1, 3))
        assert np.allclose(pooled.reshape(14, 14), blocks, atol=1e-12)

    def test_a_limit_converts_only_the_records_it_keeps(self, tmp_path):
        """On 2,000 28x28 images, limit=10 peaks under 4 MB: the records are
        cut before conversion (all 2,000 as float64 take 12.5 MB), and the
        features are the full file's first 10, bit for bit."""
        rng = np.random.default_rng(29)
        images, labels = tmp_path / "images", tmp_path / "labels"
        write_idx_images(images, rng.integers(0, 256, size=(2000, 28, 28)))
        write_idx_labels(labels, rng.integers(0, 10, size=2000))
        tracemalloc.start()
        try:
            ingest_mnist_idx(images, labels, limit=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        for downsample in (1, 2):
            full, full_y = ingest_mnist_idx(images, labels, downsample=downsample)
            cut, cut_y = ingest_mnist_idx(images, labels, downsample=downsample, limit=10)
            assert cut.tobytes() == full[:10].tobytes()
            assert cut_y.tobytes() == full_y[:10].tobytes()

    def test_magic_mismatch(self, tmp_path, mnist_idx_files):
        images, labels = mnist_idx_files
        bad = tmp_path / "bad-idx"
        raw = bytearray(images.read_bytes())
        raw[3] = 0x42
        bad.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="magic 0x00000842, expected 0x00000803"):
            ingest_mnist_idx(bad, labels)

    def test_truncated(self, tmp_path, mnist_idx_files):
        """The payload must be exactly the size the header declares: 100 bytes
        short and one byte extra are both refused."""
        images, labels = mnist_idx_files
        declared = 800 * 28 * 28
        cut = tmp_path / "cut-idx"
        raw = images.read_bytes()
        for payload, held in ((raw[:-100], declared - 100), (raw + b"\0", declared + 1)):
            cut.write_bytes(payload)
            with pytest.raises(ParseError, match=f"payload holds {held} bytes, header declares {declared}"):
                ingest_mnist_idx(cut, labels)


@pytest.mark.parametrize("read, good, bad, lines", [
    (parse_train_config, "shape=4,4,3", "shape 4,4,3", (4, 6)),
    (read_matrix_csv, "1.0,2.0", "1.0,oops", (4, 4)),
    (ingest_iris, "5.1,3.5,1.4,0.2,setosa", "5.1,3.5,1.4,oops,setosa", (4, 4)),
], ids=["run-file", "matrix-csv", "iris-csv"])
def test_a_parse_error_names_the_files_own_line(tmp_path, read, good, bad, lines):
    """Blank and comment lines count toward the line number. Only a run file
    takes '#' comments: each CSV refuses the comment line itself (line 4)."""
    path = tmp_path / "input"
    for text, line in zip((f"{good}\n\n   \n{bad}\n", f"{good}\n\n\n# note\n\n{bad}\n"), lines):
        path.write_text(text)
        with pytest.raises(ParseError, match=f"input:{line}: "):
            read(path)


class TestRunConfig:
    def test_parse_and_build(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "shape=4,4,3\nlr=0.02\nbatch=5\nepochs=7\nshots=2048\n"
            "mode=classical\nseed=99  # master seed\nexact=false\n"
        )
        raw = parse_train_config(cfg_file)
        cfg = train_config_from_dict(raw)
        assert cfg.shape == NetworkShape(4, 4, 3)
        assert cfg.learning_rate == 0.02
        assert cfg.batch_size == 5
        assert cfg.epochs == 7
        assert cfg.forward_mode == CLASSICAL
        assert cfg.seed == 99

    def test_bad_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("shape 4,4,3\n")
        with pytest.raises(ParseError):
            parse_train_config(cfg_file)

    def test_a_key_given_twice_is_refused(self, tmp_path, iris_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shape=4,4,3\nepochs=3\n# retuned\nepochs=5\ndataset={iris_path}\n")
        with pytest.raises(ParseError, match=r"run.cfg:4: key 'epochs' given twice, first on line 2"):
            load_run(cfg_file)

    def test_an_empty_key_is_refused(self, tmp_path, iris_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shape=4,4,3\n =5\ndataset={iris_path}\n")
        with pytest.raises(ParseError, match=r"run.cfg:2: empty key"):
            load_run(cfg_file)

    def test_missing_shape(self):
        with pytest.raises(ParseError):
            train_config_from_dict({"lr": "0.1"})

    def test_exact_key_is_rejected(self):
        # a run file that asks for exact products must say mode=classical,
        # not silently sample
        with pytest.raises(ParseError, match="mode=classical"):
            train_config_from_dict({"shape": "4,4,3", "mode": "quantum", "exact": "true"})

    def test_shape_alone_keeps_every_train_config_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("shape=4,4,3\n")
        cfg = train_config_from_dict(parse_train_config(cfg_file))
        expected = TrainConfig(NetworkShape(4, 4, 3))
        for f in dataclasses.fields(TrainConfig):
            assert repr(getattr(cfg, f.name)) == repr(getattr(expected, f.name)), f.name

    def test_load_run_iris(self, tmp_path, iris_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shape=4,4,3\nepochs=3\nmode=classical\ndataset={iris_path}\n")
        cfg, data = load_run(cfg_file)
        assert cfg == TrainConfig(NetworkShape(4, 4, 3), epochs=3, forward_mode=CLASSICAL)
        expected = ingest_iris(iris_path, split_seed=SPLIT_SEED)
        assert data.split_seed == SPLIT_SEED
        assert np.array_equal(data.train_idx, expected.train_idx)
        assert np.array_equal(data.features, expected.features)

    def test_load_run_idx_pair(self, tmp_path, mnist_idx_files):
        images, labels = mnist_idx_files
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"shape=196,8,10\nmnist_images={images}\nmnist_labels={labels}\n"
            "downsample=2\nlimit=60\ntrain_count=40\ntest_count=20\nsplit_seed=9\n"
        )
        _, data = load_run(cfg_file)
        features, _ = ingest_mnist_idx(images, labels, downsample=2, limit=60)
        assert np.array_equal(data.features, features)
        assert data.train_idx.tolist() == list(range(40))
        assert data.test_idx.tolist() == list(range(40, 60))
        assert data.split_seed == 9

    @pytest.mark.parametrize("extra, key", [
        ("epoch=3", "epoch"),              # misspelt
        ("exact=false", "exact"),          # not a key
        ("downsample=2", "downsample"),    # IDX key in an IRIS run
        ("train_count=5", "train_count"),
    ])
    def test_key_the_run_does_not_read_is_refused(self, tmp_path, iris_path, extra, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shape=4,4,3\n{extra}\ndataset={iris_path}\n")
        with pytest.raises(ParseError, match=key):
            load_run(cfg_file)

    @pytest.mark.parametrize("half", ["train_count=40", "test_count=20"])
    def test_half_a_count_pair_is_refused(self, tmp_path, mnist_idx_files, half):
        images, labels = mnist_idx_files
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shape=784,8,10\nmnist_images={images}\nmnist_labels={labels}\n{half}\n")
        with pytest.raises(ParseError, match=half.split("=")[0]):
            load_run(cfg_file)

    @pytest.mark.parametrize("line", ["epochs=0", "mode=sampled", "limit=0", "batch=2.5",
                                      f"shots={1 << 63}"])
    def test_refused_value_is_a_parse_error(self, tmp_path, mnist_idx_files, line):
        images, labels = mnist_idx_files
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"shape=784,8,10\nmnist_images={images}\nmnist_labels={labels}\n{line}\n")
        with pytest.raises(ParseError):
            load_run(cfg_file)


def test_readme_lists_every_run_file_key_with_its_default():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = {key: row.rsplit("|", 2)[1].strip()
            for row in re.findall(r"^  \| `.*$", readme, flags=re.M)
            for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert set(rows) == nn._TRAIN_KEYS | nn._IRIS_KEYS | nn._IDX_KEYS
    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    for key, (name, _) in nn._CONFIG_KEYS.items():
        default = defaults[name]  # the forward mode's default is a ForwardMode member
        assert rows[key] == str(getattr(default, "value", default)), key
    assert rows["split_seed"] == str(nn.SPLIT_SEED)
