"""Single-hidden-layer classifier whose forward products run on the
quantum matmul engine.

The forward pass is hidden = sigmoid(W1 x), logits = W2 hidden, with both
layer products executed by the matmul orchestrator: exact mode (one
normalized matrix product) in classical mode, shot-sampled overlaps in
quantum mode. Gradients are always computed classically from
the (possibly noisy) forward activations; no biases are used, so the network
is exactly a pair of matrix products around a sigmoid.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyDataset, InvalidArgument, ParseError, ShapeMismatch, as_enum, as_int
from .matio import read_idx, read_lines
from .matmul import MatMulConfig, matmul
from .seeding import MAX_SHOTS, derive_seed, job_rng
from .vectors import _finite


class ForwardMode(str, Enum):
    CLASSICAL = "classical"  # exact products, no sampling
    QUANTUM = "quantum"


CLASSICAL, QUANTUM = ForwardMode.CLASSICAL, ForwardMode.QUANTUM

# seed-derivation tags, arbitrary distinct constants
_TAG_INIT = 0x11
_TAG_SHUFFLE = 0x5F
_TAG_FORWARD = 0xF0
_TAG_EVAL = 0xE7


@dataclass(frozen=True)
class NetworkShape:
    inputs: int
    hidden: int
    outputs: int

    def __post_init__(self):
        for name in ("inputs", "hidden", "outputs"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if min(self.inputs, self.hidden, self.outputs) < 1:
            raise ShapeMismatch(f"layer widths must be >= 1, got {self}")


@dataclass(frozen=True)
class TrainConfig:
    shape: NetworkShape
    batch_size: int = 10
    learning_rate: float = 0.01
    epochs: int = 250
    shots: int = 16384
    seed: int = 0
    forward_mode: ForwardMode = QUANTUM

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, minimum=1))
        object.__setattr__(self, "shots", as_int(self.shots, "shots", minimum=1, maximum=MAX_SHOTS))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        _check_learning_rate(self.learning_rate)
        mode = as_enum(ForwardMode, self.forward_mode, "forward_mode")
        object.__setattr__(self, "forward_mode", mode)


@dataclass
class Dataset:
    features: np.ndarray  # samples x dims
    labels: np.ndarray  # int class ids in [0, n_classes)
    train_idx: np.ndarray
    test_idx: np.ndarray
    split_seed: int
    n_classes: int


@dataclass
class Model:
    w1: np.ndarray  # hidden x inputs
    w2: np.ndarray  # outputs x hidden


@dataclass
class TrainReport:
    mode: str
    epochs: list = field(default_factory=list)  # (epoch, train_loss, test_accuracy)
    final_accuracy: float = 0.0
    quantum_jobs: int = 0
    wall_clock_s: float = 0.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def init_model(shape: NetworkShape, seed: int) -> Model:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    rng = job_rng(derive_seed(seed, _TAG_INIT))
    b1 = 1.0 / np.sqrt(shape.inputs)
    b2 = 1.0 / np.sqrt(shape.hidden)
    return Model(
        w1=rng.uniform(-b1, b1, size=(shape.hidden, shape.inputs)),
        w2=rng.uniform(-b2, b2, size=(shape.outputs, shape.hidden)),
    )


def _check_learning_rate(value):
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise InvalidArgument(f"learning_rate must be a finite number > 0, got {value!r}")
    return value


def forward(
    model: Model,
    x: np.ndarray,
    mode: ForwardMode = CLASSICAL,
    shots: int = 16384,
    seed: int = 0,
):
    """Forward pass for a batch.

    x may be one sample (dims,) or a batch (samples, dims). Returns
    (logits, hidden, jobs) with logits/hidden shaped (outputs|hidden, batch);
    jobs counts the estimation jobs dispatched. mode is a ForwardMode member
    or its value string.
    """
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))  # samples x dims
    exact = as_enum(ForwardMode, mode, "mode") is CLASSICAL
    r1 = matmul(model.w1, xb.T, MatMulConfig(shots=shots, seed=derive_seed(seed, 1), exact=exact))
    hidden = sigmoid(r1.c)
    r2 = matmul(model.w2, hidden, MatMulConfig(shots=shots, seed=derive_seed(seed, 2), exact=exact))
    return r2.c, hidden, r1.job_count + r2.job_count


def _loss_and_grads(model: Model, xb: np.ndarray, y: np.ndarray,
                    mode: ForwardMode, shots: int, seed: int):
    """Summed cross-entropy loss and its weight gradients for one mini-batch.

    The loss is accumulated (not averaged) over the batch, so the step size
    per sample is independent of batch size. The forward activations may be
    noisy (quantum mode); the backward pass is plain chain-rule arithmetic
    on whatever the forward produced.
    """
    logits, hidden, jobs = forward(model, xb, mode=mode, shots=shots, seed=seed)
    batch = xb.shape[0]
    probs = softmax(logits)
    onehot = np.zeros_like(probs)
    onehot[y, np.arange(batch)] = 1.0
    eps = 1e-300
    loss = float(-np.sum(np.log(probs[y, np.arange(batch)] + eps)))
    dlogits = probs - onehot
    dw2 = dlogits @ hidden.T
    dhidden = model.w2.T @ dlogits
    dz1 = dhidden * hidden * (1.0 - hidden)
    dw1 = dz1 @ xb
    return loss, dw1, dw2, jobs


def _accuracy(model: Model, data: Dataset, mode: ForwardMode, shots: int, seed: int) -> tuple[float, int]:
    """Argmax-logit accuracy on the nonempty test split, and the jobs it took."""
    idx = data.test_idx
    logits, _, jobs = forward(model, data.features[idx], mode=mode, shots=shots, seed=seed)
    return float(np.mean(logits.argmax(axis=0) == data.labels[idx])), jobs


def evaluate(
    model: Model,
    data: Dataset,
    mode: ForwardMode = CLASSICAL,
    shots: int = 16384,
    seed: int = 0,
) -> float:
    """Argmax-logit accuracy on the test split."""
    if len(data.test_idx) == 0:
        raise EmptyDataset("no evaluation samples")
    return _accuracy(model, data, mode, shots, seed)[0]


def train(data: Dataset, cfg: TrainConfig) -> tuple[Model, TrainReport]:
    """Mini-batch SGD with cross-entropy loss; deterministic given cfg.seed."""
    if len(data.train_idx) == 0:
        raise EmptyDataset("no training samples")
    if data.features.shape[1] != cfg.shape.inputs:
        raise ShapeMismatch(
            f"dataset dim {data.features.shape[1]} != shape.inputs {cfg.shape.inputs}"
        )
    if data.n_classes > cfg.shape.outputs:
        raise ShapeMismatch(
            f"{data.n_classes} classes exceed {cfg.shape.outputs} outputs"
        )
    model = init_model(cfg.shape, cfg.seed)
    report = TrainReport(mode=cfg.forward_mode.value)
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = job_rng(derive_seed(cfg.seed, _TAG_SHUFFLE, epoch)).permutation(
            data.train_idx
        )
        losses = []
        for b, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            loss, dw1, dw2, jobs = _loss_and_grads(
                model,
                data.features[idx],
                data.labels[idx],
                cfg.forward_mode,
                cfg.shots,
                derive_seed(cfg.seed, _TAG_FORWARD, epoch, b),
            )
            model.w1 -= cfg.learning_rate * dw1
            model.w2 -= cfg.learning_rate * dw2
            losses.append(loss / len(idx))  # per-sample loss for the record
            report.quantum_jobs += jobs
        if len(data.test_idx):
            acc, jobs = _accuracy(model, data, cfg.forward_mode, cfg.shots,
                                  derive_seed(cfg.seed, _TAG_EVAL, epoch))
            report.quantum_jobs += jobs
        else:
            acc = float("nan")
        report.epochs.append((epoch, float(np.mean(losses)), acc))
    report.final_accuracy = report.epochs[-1][2]  # TrainConfig requires epochs >= 1
    report.wall_clock_s = time.perf_counter() - started
    return model, report


# ---------------------------------------------------------------------------
# dataset ingestion


_TRAIN_FRACTION = 0.8  # per class, in the stratified split
SPLIT_SEED = 1234  # default split seed, of ingest_iris and of run files


def split_dataset(
    features: np.ndarray,
    labels: np.ndarray,
    split_seed: int,
    counts: tuple[int, int] | None = None,
) -> Dataset:
    """Train/test split; stratified by label (80% of each class trains)
    unless counts are given, in which case the first `counts[0]` samples
    train and the next `counts[1]` test."""
    labels = np.asarray(labels)
    split_seed = as_int(split_seed, "split_seed")
    # no samples is EmptyDataset, ahead of _finite's ShapeMismatch for size 0
    if np.size(features) == 0 or len(labels) == 0:
        raise EmptyDataset("features and labels must be nonempty and aligned")
    features = _finite(features, 2, "feature matrix")
    if len(features) != len(labels):
        raise EmptyDataset("features and labels must be nonempty and aligned")
    # refused rather than truncated, as as_int refuses a float count
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidArgument(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0:
        raise InvalidArgument(f"labels must be >= 0, got {labels.min()}")
    labels = labels.astype(np.int64, copy=False)
    n_classes = int(labels.max()) + 1
    if counts is not None:
        n_train = as_int(counts[0], "train_count", minimum=0)
        n_test = as_int(counts[1], "test_count", minimum=0)
        if n_train + n_test > len(labels):
            raise EmptyDataset(
                f"requested {n_train}+{n_test} samples from {len(labels)}"
            )
        train_idx = np.arange(n_train)
        test_idx = np.arange(n_train, n_train + n_test)
    else:
        rng = job_rng(split_seed)
        train_parts, test_parts = [], []
        for c in np.unique(labels):
            idx = rng.permutation(np.where(labels == c)[0])
            k = int(round(len(idx) * _TRAIN_FRACTION))
            train_parts.append(idx[:k])
            test_parts.append(idx[k:])
        train_idx = np.sort(np.concatenate(train_parts))
        test_idx = np.sort(np.concatenate(test_parts))
    return Dataset(
        features=features,
        labels=labels,
        train_idx=train_idx,
        test_idx=test_idx,
        split_seed=split_seed,
        n_classes=n_classes,
    )


def ingest_iris(path, split_seed: int = SPLIT_SEED) -> Dataset:
    """IRIS CSV: four float features plus a string label per line.

    Labels map to {0, 1, 2} in sorted order; feature columns are
    standardized to zero mean / unit variance over the whole file.
    """
    rows, names = [], []
    for lineno, line in read_lines(path):
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) != 5:
            raise ParseError(f"{path}:{lineno}: expected 4 features + label")
        try:
            rows.append([float(tok) for tok in parts[:4]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        names.append(parts[4])
    if not rows:
        raise ParseError(f"{path}: no samples")
    features = _finite(rows, 2, f"{path}: feature matrix")
    classes = sorted(set(names))
    labels = np.array([classes.index(nm) for nm in names], dtype=np.int64)
    std = features.std(axis=0)
    if np.any(std == 0):
        raise ParseError(f"{path}: constant feature column")
    features = (features - features.mean(axis=0)) / std
    return split_dataset(features, labels, split_seed)


def _avg_pool(images: np.ndarray, factor: int) -> np.ndarray:
    n, r, c = images.shape
    if r % factor or c % factor:
        raise ParseError(f"pooling factor {factor} does not divide {r}x{c}")
    return images.reshape(n, r // factor, factor, c // factor, factor).mean(axis=(2, 4))


def ingest_mnist_idx(
    images_path,
    labels_path,
    downsample: int = 1,
    limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """IDX image/label pair, as `matio.read_idx` reads them. Pixels scale to
    [0, 1]; optional average-pool downsampling and a leading-sample limit.
    Returns (features, labels) flat arrays."""
    images = read_idx(images_path, 3)
    labels = read_idx(labels_path, 1)
    if len(images) != len(labels):
        raise ParseError(f"{len(images)} images vs {len(labels)} labels")
    if limit is not None:  # cut before conversion: a small limit converts few records
        limit = as_int(limit, "limit", minimum=1)
        images, labels = images[:limit], labels[:limit]
    images = images.astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    if as_int(downsample, "downsample", minimum=1) > 1:
        images = _avg_pool(images, downsample)
    return images.reshape(images.shape[0], -1), labels


# ---------------------------------------------------------------------------
# run files

# run-file key -> (TrainConfig field, parser of its text); an absent key keeps
# the field's default. The lr parser applies TrainConfig's rule itself, so a
# refused rate is reported under its run-file key
_CONFIG_KEYS = {
    "batch": ("batch_size", int),
    "lr": ("learning_rate", lambda text: _check_learning_rate(float(text))),
    "epochs": ("epochs", int),
    "shots": ("shots", int),
    "seed": ("seed", int),
    "mode": ("forward_mode", str.lower),
}
_TRAIN_KEYS = frozenset({"shape", *_CONFIG_KEYS})
# dataset keys per source: an IRIS CSV, or an IDX image/label pair
_IRIS_KEYS = frozenset({"dataset", "split_seed"})
_IDX_INTS = ("downsample", "limit", "train_count", "test_count")
_IDX_KEYS = frozenset({"mnist_images", "mnist_labels", "split_seed", *_IDX_INTS})


def parse_train_config(path) -> dict:
    """key=value run file; '#' starts a comment. Returns a raw string dict;
    a key given twice is a ParseError."""
    out, first = {}, {}
    for lineno, line in read_lines(path, comment="#"):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        if key in first:
            raise ParseError(f"{path}:{lineno}: key {key!r} given twice, first on line {first[key]}")
        out[key], first[key] = value, lineno
    return out


def _value(raw: dict, key: str, parse):
    try:
        return parse(raw[key])
    except ValueError:
        raise ParseError(f"bad train config: {key}={raw[key]!r}") from None


def train_config_from_dict(raw: dict) -> TrainConfig:
    """The TrainConfig of a parsed run file; other keys are not looked at."""
    if raw.get("exact", "false").lower() in ("1", "true", "yes"):
        raise ParseError("exact is not a run-file key; mode=classical runs the exact path")
    if "shape" not in raw:
        raise ParseError("bad train config: missing shape=<inputs>,<hidden>,<outputs>")
    widths = _value(raw, "shape", lambda text: tuple(int(tok) for tok in text.split(",")))
    if len(widths) != 3:
        raise ParseError(f"shape needs 3 widths, got {raw['shape']!r}")
    fields = {name: _value(raw, key, parse) for key, (name, parse) in _CONFIG_KEYS.items() if key in raw}
    return TrainConfig(shape=NetworkShape(*widths), **fields)


def load_run(path) -> tuple[TrainConfig, Dataset]:
    """A run file's TrainConfig and Dataset. An absent key keeps its default;
    a key this run does not read, half of the train_count/test_count pair, or
    a value its consumer refuses is a ParseError."""
    raw = parse_train_config(path)
    try:
        cfg = train_config_from_dict(raw)
        if "dataset" in raw:
            source = _IRIS_KEYS
        elif "mnist_images" in raw and "mnist_labels" in raw:
            source = _IDX_KEYS
        else:
            raise ParseError("config needs dataset=<iris csv> or mnist_images=/mnist_labels=")
        unread = sorted(raw.keys() - _TRAIN_KEYS - source)
        if unread:
            raise ParseError(f"{path}: run-file key(s) not read by this run: {', '.join(unread)}")
        if ("train_count" in raw) != ("test_count" in raw):
            raise ParseError(f"{path}: train_count and test_count must be given together")
        ints = {key: _value(raw, key, int) for key in ("split_seed", *_IDX_INTS) if key in raw}
        split_seed = ints.pop("split_seed", SPLIT_SEED)
        if source is _IRIS_KEYS:
            return cfg, ingest_iris(raw["dataset"], split_seed)
        counts = (ints.pop("train_count"), ints.pop("test_count")) if "train_count" in ints else None
        features, labels = ingest_mnist_idx(raw["mnist_images"], raw["mnist_labels"], **ints)
        return cfg, split_dataset(features, labels, split_seed, counts=counts)
    except InvalidArgument as exc:
        raise ParseError(f"bad train config: {exc}") from None

