"""Desk-scale training harness: does training on the dequantized data
match training on the originals?

The model is multinomial logistic regression fit by mini-batch SGD with
momentum and weight decay. Runs are bitwise deterministic in
(dataset, config): the seed fixes the initialization and every epoch's
shuffle. Optional per-feature normalization is fit on the training
arm's own data and folded into the returned model's weights, so the
model always consumes raw inputs.

compare() trains two models from the same seeded initialization, one on
the original samples and one on their dequantized counterparts (index
alignment through drop tombstones), and evaluates both on the same
held-out split of the original data.

Memory: a fit holds one float64 copy of its training rows, gathered and
standardized in place a row chunk (quantizer.CHUNK_ELEMENTS elements) at
a time, so it peaks at 8 bytes per trained element plus one chunk. At
its peak, compare() holds the original float32 data, its float32 test
split, the QDS file's bytes, the dequantized float32 train set and that
one float64 matrix plus one chunk. evaluate() casts the set it scores to
float64 in one piece, after the fit has freed its matrix: in row chunks,
BLAS can round a logit of a short final chunk differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .qds import QdsRecords
from .quantizer import CHUNK_ELEMENTS
from .sensitivity import LogisticModel, _softmax

_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    seed: int = 42
    normalize: bool = True

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("invalid training configuration")


@dataclass(frozen=True)
class EvalReport:
    train_accuracy: float
    test_accuracy: float
    loss_curve: tuple
    accuracy_delta: float  # quantized minus full-precision test accuracy
    baseline_test_accuracy: float


def initial_model(num_classes: int, input_dim: int, seed: int) -> LogisticModel:
    """Seeded initialization shared by both arms of a comparison."""
    return LogisticModel.seeded(num_classes, input_dim, seed)


def _training_matrix(dataset: Dataset, rows: np.ndarray, normalize: bool):
    """dataset.values[rows] as one float64 matrix, standardized in place
    per feature when normalize is set; returns (x, mean, std).

    Bit for bit this is astype(float64), mean(axis=0), std(axis=0) and
    (x - mean) / std, without their full-size temporaries: an axis-0 sum
    adds rows in order, so the squared deviations are summed a row chunk
    at a time with the running total folded into each chunk's first row.
    """
    n, dim = len(rows), dataset.shape.element_count
    step = max(1, CHUNK_ELEMENTS // dim)
    chunks = [slice(start, start + step) for start in range(0, n, step)]
    x = np.empty((n, dim), dtype=np.float64)
    for chunk in chunks:
        x[chunk] = dataset.values[rows[chunk]]
    if not normalize:
        return x, None, None
    mean = x.mean(axis=0)
    x -= mean
    total = np.zeros(dim)
    for chunk in chunks:
        squares = np.square(x[chunk])
        squares[0] += total
        total = squares.sum(axis=0)
    std = np.sqrt(total / n)
    std[std < _STD_FLOOR] = 1.0
    x /= std
    return x, mean, std


def _fit(dataset: Dataset, config: TrainConfig, rows=None):
    """Train on dataset (or on its rows, in that order); returns the
    model and the per-epoch mean loss curve."""
    rows = np.arange(len(dataset)) if rows is None else np.asarray(rows, dtype=np.int64)
    y = dataset.labels[rows]
    if len(y) == 0:
        raise ValueError("cannot train on an empty dataset")
    x, mean, std = _training_matrix(dataset, rows, config.normalize)
    n, dim = x.shape
    classes = dataset.num_classes

    model = initial_model(classes, dim, config.seed)
    weights, bias = model.weights, model.bias
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    onehot = np.eye(classes)[y]
    rng = np.random.default_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = perm[start:start + config.batch_size]
            xb, tb = x[batch], onehot[batch]
            probs = _softmax(xb @ weights.T + bias)
            epoch_loss += -np.log(
                np.maximum(probs[np.arange(len(batch)), y[batch]], 1e-300)
            ).sum()
            residual = (probs - tb) / len(batch)
            grad_w = residual.T @ xb + config.weight_decay * weights
            grad_b = residual.sum(axis=0)
            vel_w = config.momentum * vel_w - config.learning_rate * grad_w
            vel_b = config.momentum * vel_b - config.learning_rate * grad_b
            weights = weights + vel_w
            bias = bias + vel_b
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise RuntimeError("training diverged (non-finite loss)")
        losses.append(mean_loss)

    if config.normalize:
        # fold (x - mean)/std into the weights so the model takes raw inputs
        weights = weights / std
        bias = bias - weights @ mean
    return LogisticModel(weights, bias), tuple(losses)


def train(dataset: Dataset, config: TrainConfig, rows=None) -> LogisticModel:
    """Fit the classifier on dataset, or on its rows; with epochs=0 (and
    normalize off) this is exactly the seeded initialization."""
    model, _ = _fit(dataset, config, rows)
    return model


def evaluate(model: LogisticModel, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties pick the lowest class."""
    if model.input_dim != dataset.shape.element_count:
        raise ValueError("model input dimension does not match dataset")
    predictions = np.argmax(model.logits(dataset.values), axis=1)
    return float(np.mean(predictions == dataset.labels)) if len(dataset) else 0.0


def stratified_split(dataset: Dataset, test_fraction: float, seed: int):
    """Seeded per-class split; returns (train_indices, test_indices)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        members = members[rng.permutation(members.size)]
        n_test = int(round(test_fraction * members.size))
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    return (np.sort(np.concatenate(train_idx)),
            np.sort(np.concatenate(test_idx)))


def fit_scoring_model(dataset: Dataset, mode: str = "trained",
                      seed: int = 42) -> LogisticModel:
    """Model state used for sensitivity scoring.

    "trained" runs one SGD pass over the full-precision data from the
    seeded initialization; "random" returns the initialization itself.
    """
    if mode == "random":
        return initial_model(dataset.num_classes, dataset.shape.element_count, seed)
    if mode == "trained":
        return train(dataset, TrainConfig(epochs=1, seed=seed))
    raise ValueError(f"unknown scoring-model mode {mode!r}")


def _check_same_dataset(stored: QdsRecords, original: Dataset) -> None:
    """Reject a container that was not quantized from original."""
    header = stored.header
    for what, theirs, ours in (
        ("sample count", header.sample_count, len(original)),
        ("sample shape", header.shape, original.shape),
        ("class count", header.num_classes, original.num_classes),
    ):
        if theirs != ours:
            raise ValueError(f"quantized file has {what} {theirs}, dataset has {ours}")
    kept = np.flatnonzero(stored.widths > 0)
    bad = kept[stored.labels[kept] != original.labels[kept]]
    if bad.size:
        i = bad[0]
        raise ValueError(f"record {i}: quantized file has label {stored.labels[i]}, "
                         f"dataset has {original.labels[i]}")


def compare(original: Dataset, quantized_path, config: TrainConfig,
            test_fraction: float = 0.2) -> EvalReport:
    """Train on original vs dequantized data and report the accuracy gap."""
    stored = QdsRecords(quantized_path)
    _check_same_dataset(stored, original)
    train_idx, test_idx = stratified_split(original, test_fraction, config.seed)
    test_set = original.subset(test_idx)

    baseline = train(original, config, rows=train_idx)
    baseline_acc = evaluate(baseline, test_set)

    quant_train = stored.training_set(train_idx)
    if len(quant_train) == 0:
        raise ValueError("empty training set: every sample was dropped")
    quant_model, curve = _fit(quant_train, config)
    quant_acc = evaluate(quant_model, test_set)
    return EvalReport(
        train_accuracy=evaluate(quant_model, quant_train),
        test_accuracy=quant_acc,
        loss_curve=curve,
        accuracy_delta=quant_acc - baseline_acc,
        baseline_test_accuracy=baseline_acc,
    )
