import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

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
from qstacker.errors import (
    EmptyDataset,
    InvalidArgument,
    MagicMismatch,
    ParseError,
    ShapeMismatch,
    TruncatedFile,
)
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

    def test_unknown_mode_raises_before_any_job(self, monkeypatch):
        import qstacker.stacking

        dispatched = []
        monkeypatch.setattr(qstacker.stacking, "sample_hadamard", dispatched.append)
        model = Model(w1=np.ones((4, 4)), w2=np.ones((3, 4)))
        data = tiny_dataset()
        with pytest.raises(ValueError, match="unknown forward mode 'Classical'"):
            forward(model, np.ones(4), mode="Classical")
        with pytest.raises(ValueError, match="unknown forward mode 'sampled'"):
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

    def test_magic_mismatch(self, tmp_path, mnist_idx_files):
        images, labels = mnist_idx_files
        bad = tmp_path / "bad-idx"
        raw = bytearray(images.read_bytes())
        raw[3] = 0x42
        bad.write_bytes(bytes(raw))
        with pytest.raises(MagicMismatch):
            ingest_mnist_idx(bad, labels)

    def test_truncated(self, tmp_path, mnist_idx_files):
        images, labels = mnist_idx_files
        cut = tmp_path / "cut-idx"
        cut.write_bytes(images.read_bytes()[:-100])
        with pytest.raises(TruncatedFile):
            ingest_mnist_idx(cut, labels)


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

    @pytest.mark.parametrize("line", ["epochs=0", "mode=sampled", "limit=0", "batch=2.5"])
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
        assert rows[key] == str(defaults[name]), key
    assert rows["split_seed"] == str(nn.SPLIT_SEED)
