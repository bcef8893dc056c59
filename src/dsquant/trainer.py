"""Desk-scale training harness: does training on the dequantized data
match training on the originals?

The model is multinomial logistic regression fit by one constant recipe:
mini-batch SGD with momentum and weight decay on standardized features.
TrainConfig sets only the epoch count and the seed, and a run is bitwise
deterministic in (dataset, config). The normalization is always on; it
is fit on the training arm's own data and folded into the returned
model's weights, so the model always consumes raw inputs.

compare() trains two models from the same seeded initialization, one on
the original samples and one on their dequantized counterparts (index
alignment through drop tombstones), and evaluates both on the same
held-out split of the original data. The two fits are independent, so
where it can compare() runs them at once through parallel.started: the
baseline arm in a forked child, the quantized arm in the caller's
process, each with OpenBLAS on one thread. The child sends back only its
model, the bytes of its weights and bias, and the caller scores both
models on the test split, so the report is the same bit for bit whether
the arms run at once or one after the other.

Memory: _moments() is the one owner of the per-feature mean and std: it
sums the squared deviations a row chunk (quantizer.row_chunks) at a time
in row order, from float32 rows or a float64 matrix alike. train() holds
no float64 copy of its training rows: it standardizes each batch as it
gathers it from the float32 rows, bit for bit as on a standardized
matrix, so it peaks at one float64 chunk (8 MiB) plus the model;
fit_scoring_model(), score's one-epoch fit, is this path. compare()'s
30-epoch fits gather each batch from one float64 matrix, standardized in
place, which is cheaper per step and peaks at 8 bytes per trained
element plus one chunk. No one-hot label rows: a step subtracts 1 from
each row's own class probability in place, p - onehot(y) bit for bit, so
beyond the model the class count sizes only per-row logits and
probabilities. A step allocates only its gathered batch and one per-row
vector. The batch's logits (which become its probabilities and then its
residual, in place), each row's max or sum of them, and the gradient,
velocity and weight-decay buffers are allocated once per fit, with their
transposed and flat views, and so is one n-vector of each row's
probability of its own class. From it the epoch's loss is summed at the
epoch's end, one batch per row of one reshape, then batch after batch in
order. Each epoch adds its permutation and each row's flat class
position in its batch's probabilities: beyond the model, at most 32
bytes per row next to the 8·D bytes of a matrix row. The weights, bias
and loss curve are the same bits as when every step allocated its
temporaries afresh.
compare() streams the dataset file, so the float32 dataset never exists
in full, and orders its work so that no process holds more than one
matrix, and none holds the test split beside one:
  1. It reads the dataset file's header and labels (dataset.DatasetRows)
     and the QDS file's bytes, checks that the two match, splits on the
     labels, and forks.
  2. The child gathers the train rows into the baseline matrix with
     DatasetRows.take, one pass over the value rows a row chunk at a
     time, standardizes it in place and fits. Meanwhile the parent
     builds the quantized matrix straight from decoded QDS chunks, with
     no float32 training set, standardizes it and fits. Each process
     peaks at its own matrix + the QDS bytes + one row chunk.
  3. After its fit the parent scores its model on the dequantized train
     rows, then takes the float32 test split in one more pass and scores
     its model and the child's on it. Each is cast to float64 in one piece
     (in row chunks, BLAS can round a logit of a short final chunk
     differently), one at a time, after the matrix is freed.
The sequential fallback runs the baseline arm first, and frees its
matrix before the quantized one is built, so it peaks at the baseline
matrix + the QDS bytes + one row chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .dataset import Dataset, DatasetRows
from .qds import QdsRecords
from .quantizer import row_chunks
from .sensitivity import LogisticModel

BATCH_SIZE = 64
LEARNING_RATE = 0.1
MOMENTUM = 0.9
WEIGHT_DECAY = 2e-4
TEST_FRACTION = 0.2  # held out of each class by compare()

_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("invalid training configuration")


@dataclass(frozen=True)
class EvalReport:
    train_accuracy: float
    test_accuracy: float
    loss_curve: tuple
    accuracy_delta: float  # quantized minus full-precision test accuracy
    baseline_test_accuracy: float


def _row_sum(blocks) -> np.ndarray:
    """The axis-0 sum of the float64 row blocks that blocks yields, bit
    for bit as one sum over their concatenation: an axis-0 sum adds rows
    in order, so the running total is folded into each later block's
    first row (which changes the block)."""
    total = None
    for block in blocks:
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
        del block  # before blocks makes the next one
    return total


def _squared(x: np.ndarray) -> np.ndarray:
    return np.square(x, out=x)


def _moments(values: np.ndarray):
    """The per-feature (mean, std) of the float32 or float64 rows values,
    bit for bit mean(axis=0) and std(axis=0) of their float64 matrix,
    without its full-size temporaries: the squared deviations are summed
    a row chunk at a time, so beyond values this holds one float64 chunk."""
    mean = values.mean(axis=0, dtype=np.float64)
    deviations = (values[chunk] - mean for chunk in row_chunks(*values.shape))  # float64
    std = np.sqrt(_row_sum(map(_squared, deviations)) / len(values))
    std[std < _STD_FLOOR] = 1.0
    return mean, std


def _standardized(x: np.ndarray):
    """Standardize the float64 matrix x in place per feature; returns
    (x, mean, std), bit for bit (x - mean) / std."""
    mean, std = _moments(x)
    x -= mean
    x /= std
    return x, mean, std


class _StandardizedRows:
    """The rows of values standardized on the fly: self.take(batch,
    axis=0) gathers the batch from values and equals x.take(batch, axis=0)
    of _standardized's matrix x bit for bit, and no float64 copy of the
    rows is ever held."""

    def __init__(self, values: np.ndarray):
        self._values, self.shape = values, values.shape
        self.mean, self.std = _moments(values)

    def take(self, batch, axis: int = 0) -> np.ndarray:
        """The rows batch (axis is 0, as _descend passes it)."""
        x = self._values[batch].astype(np.float64)
        x -= self.mean
        x /= self.std
        return x


def _descend(x, mean, std, y, classes: int, config: TrainConfig):
    """Fit the recipe on the standardized rows x, labelled y: a matrix
    from _standardized, or a _StandardizedRows, either only read through
    x.shape and x.take(batch, axis=0), which gathers a batch of narrow
    rows faster than x[batch]. Returns the model on raw inputs and the
    per-epoch mean loss curve. A step works in place (see the module
    docstring); the epoch's loss is summed batch by batch at its end."""
    n, dim = x.shape
    init = LogisticModel.seeded(classes, dim, config.seed)
    # the weights then the bias in one vector, and their velocity and
    # gradient alike, so the momentum update is four calls; each (C, D)
    # block is a C-contiguous view (a strided one rounds differently)
    params = np.concatenate([init.weights.ravel(), init.bias])
    vel, grad = np.zeros_like(params), np.empty_like(params)
    size = classes * dim
    weights, bias = params[:size].reshape(classes, dim), params[size:]
    grad_w, grad_b = grad[:size].reshape(classes, dim), grad[size:]
    weights_t, decay = weights.T, np.empty_like(weights)
    # a batch's logits, which become its probabilities and then its
    # residual, and each row's max or sum of them; a short last batch
    # takes their leading rows
    probs_full, row_stat = np.empty((BATCH_SIZE, classes)), np.empty((BATCH_SIZE, 1))
    flat = probs_full.reshape(-1)
    views = {count: (probs_full[:count], probs_full[:count].T, row_stat[:count])
             for count in (min(n, BATCH_SIZE), n % BATCH_SIZE or BATCH_SIZE)}
    picked = np.empty(n)  # each row's probability of its own class
    row_offsets = np.arange(n) % BATCH_SIZE * classes  # of a batch row in its probs
    full = n - n % BATCH_SIZE
    # [0] stays 0.0, the start of the batch-by-batch running sum
    batch_losses = np.zeros(1 + -(-n // BATCH_SIZE))
    rng = np.random.default_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        own = y[perm]
        own += row_offsets  # flat position of each row's class in its probs
        for start in range(0, n, BATCH_SIZE):
            rows = slice(start, start + BATCH_SIZE)
            own_b, picked_b = own[rows], picked[rows]
            probs, probs_t, stat = views[own_b.size]
            xb = x.take(perm[rows], axis=0)
            np.dot(xb, weights_t, out=probs)
            probs += bias
            np.maximum.reduce(probs, axis=1, keepdims=True, out=stat)
            probs -= stat  # softmax, in place
            np.exp(probs, out=probs)
            np.add.reduce(probs, axis=1, keepdims=True, out=stat)
            probs /= stat
            np.take(flat, own_b, out=picked_b)
            flat[own_b] = picked_b - 1.0  # probs - onehot(y)
            probs /= own_b.size  # the residual
            np.dot(probs_t, xb, out=grad_w)
            grad_w += np.multiply(WEIGHT_DECAY, weights, out=decay)
            np.add.reduce(probs, axis=0, out=grad_b)
            vel *= MOMENTUM
            grad *= LEARNING_RATE
            vel -= grad
            params += vel
        np.maximum(picked, 1e-300, out=picked)
        np.log(picked, out=picked)
        np.negative(picked, out=picked)
        np.add.reduce(picked[:full].reshape(-1, BATCH_SIZE), axis=1,
                      out=batch_losses[1:1 + full // BATCH_SIZE])
        if full < n:
            batch_losses[-1] = picked[full:].sum()
        mean_loss = np.add.accumulate(batch_losses)[-1] / n  # summed in batch order
        if not np.isfinite(mean_loss):
            raise RuntimeError("training diverged (non-finite loss)")
        losses.append(mean_loss)

    # fold (x - mean)/std into the weights so the model takes raw inputs
    weights = weights / std
    bias = bias - weights @ mean
    return LogisticModel(weights, bias), tuple(losses)


def _fit(dataset: Dataset, config: TrainConfig):
    """Train on dataset; returns the model and its per-epoch mean losses."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    x = _StandardizedRows(dataset.values)
    return _descend(x, x.mean, x.std, dataset.labels, dataset.num_classes, config)


def train(dataset: Dataset, config: TrainConfig) -> LogisticModel:
    """Fit the constant recipe on dataset; with epochs=0 this is the
    seeded initialization folded through the normalization."""
    model, _ = _fit(dataset, config)
    return model


def _accuracy(model: LogisticModel, values, labels) -> float:
    """Fraction of argmax-correct predictions; ties pick the lowest class."""
    predictions = np.argmax(model.logits(values), axis=1)
    return float(np.mean(predictions == labels)) if len(labels) else 0.0


def stratified_split(labels: np.ndarray, seed: int):
    """Seeded per-class TEST_FRACTION split of the samples labelled
    labels; returns (train_indices, test_indices), each ascending. Only
    the classes present are visited (ascending, members in index order),
    so the work follows the sample count, not the class count."""
    rng = np.random.default_rng(seed)
    by_class = np.argsort(labels, kind="stable")
    test = np.zeros(len(labels), dtype=bool)
    for members in np.split(by_class, np.flatnonzero(np.diff(labels[by_class])) + 1):
        members = members[rng.permutation(members.size)]
        test[members[:int(round(TEST_FRACTION * members.size))]] = True
    return np.flatnonzero(~test), np.flatnonzero(test)


def fit_scoring_model(dataset: Dataset, seed: int = 42) -> LogisticModel:
    """Model state used for sensitivity scoring: one SGD pass over the
    full-precision data from the seeded initialization. OpenBLAS runs on
    one thread, which is faster for its batch-sized products."""
    with parallel.one_blas_thread():
        return train(dataset, TrainConfig(epochs=1, seed=seed))


def _check_same_dataset(stored: QdsRecords, shape, num_classes: int,
                        labels: np.ndarray) -> None:
    """Reject a container that was not quantized from the dataset of this
    shape, class count and labels."""
    header = stored.header
    for what, theirs, ours in (
        ("sample count", header.sample_count, len(labels)),
        ("sample shape", header.shape, shape),
        ("class count", header.num_classes, num_classes),
    ):
        if theirs != ours:
            raise ValueError(f"quantized file has {what} {theirs}, dataset has {ours}")
    kept = np.flatnonzero(stored.widths > 0)
    bad = kept[stored.labels[kept] != labels[kept]]
    if bad.size:
        i = bad[0]
        raise ValueError(f"record {i}: quantized file has label {stored.labels[i]}, "
                         f"dataset has {labels[i]}")


def _baseline_arm(original: DatasetRows, train_idx: np.ndarray, config: TrainConfig) -> bytes:
    """Fit on the dataset file's train rows; returns the model as the
    bytes of its (C, D + 1) rows of weights then bias."""
    model, _ = _descend(*_standardized(original.take(train_idx, np.float64)),
                        original.labels[train_idx], original.num_classes, config)
    return np.column_stack([model.weights, model.bias]).tobytes()


def compare(dataset_path, quantized_path, config: TrainConfig) -> EvalReport:
    """Train on the dataset file's original samples and on the QDS file's
    dequantized ones, and report the accuracy gap. The two arms train at
    once where they can (see the module docstring)."""
    original = DatasetRows(dataset_path)
    stored = QdsRecords(quantized_path)
    _check_same_dataset(stored, original.shape, original.num_classes, original.labels)
    train_idx, test_idx = stratified_split(original.labels, config.seed)
    kept = train_idx[stored.widths[train_idx] > 0]
    if kept.size == 0:
        raise ValueError("empty training set: every sample was dropped")
    labels, classes = stored.labels[kept], stored.header.num_classes
    with parallel.started(lambda: _baseline_arm(original, train_idx, config)) as result:
        quant_model, curve = _descend(*_standardized(stored.dequantized(kept, np.float64)),
                                      labels, classes, config)
        train_acc = _accuracy(quant_model, stored.dequantized(kept, np.float64), labels)
        test_split = original.take(test_idx, np.float32), original.labels[test_idx]
        quant_acc = _accuracy(quant_model, *test_split)
        baseline = np.frombuffer(result()).reshape(classes, -1)
        baseline_acc = _accuracy(LogisticModel(baseline[:, :-1], baseline[:, -1]), *test_split)
    return EvalReport(
        train_accuracy=train_acc,
        test_accuracy=quant_acc,
        loss_curve=curve,
        accuracy_delta=quant_acc - baseline_acc,
        baseline_test_accuracy=baseline_acc,
    )
