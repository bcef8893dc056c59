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
baseline arm in a forked child, which sends back only its model, and the
quantized arm in the caller's process. The caller scores both models on
the test split, so the report is the same bit for bit whether the arms
run at once or one after the other.

Memory: _moments() is the one owner of the per-feature mean and std: it
sums the squared deviations a row chunk (quantizer.row_chunks) at a time
in row order, from float32 rows or a float64 matrix alike. train(), the
one fit on float32 rows (fit_scoring_model(), score's one-epoch fit,
keeps only its model), takes the rows and labels as arrays, which it
does not copy, and holds no float64 copy of them: each batch is
standardized as it is gathered, bit for bit as on a standardized matrix,
so it peaks at one float64 chunk (8 MiB) plus the model. compare()'s
30-epoch fits gather each batch from one float64 matrix, standardized in
place, which is cheaper per step and peaks at 8 bytes per trained
element plus one chunk. No one-hot label rows: a step subtracts 1 from
each row's own class probability in place, p - onehot(y) bit for bit, so
beyond the model the class count sizes only per-row logits and
probabilities. A step allocates only its gathered batch and one per-row
vector. The batch's logits (which sensitivity._softmax turns into its
probabilities in place, and the step into its residual), _softmax's
per-row buffer, and the gradient, velocity and weight-decay buffers are
allocated once per fit, with their transposed and flat views, and so is
one n-vector of each row's probability of its own class. From it the
epoch's loss is summed at the epoch's end, one batch per row of one
reshape, then batch after batch in order. Each epoch adds its
permutation and each row's flat class position in its batch's
probabilities: beyond the model, at most 32 bytes per row next to the
8·D bytes of a matrix row. The results are the same bits as when every
step allocated its temporaries afresh.
compare() reads both files as row sources (dataset.DatasetRows and
qds.QdsRecords), and one _arm fits each arm on the matrix that its
source's take() gathers, so the float32 dataset never exists in full.
It orders its work so that no process holds more than one matrix, and
none holds the test split beside one:
  1. It reads the dataset file's header and labels and the QDS file's
     bytes, checks that the two match, splits on the labels, and forks.
  2. The child fits on the dataset file's train rows, the parent on the
     QDS file's stored train rows; each take() is one pass over every
     row a row chunk at a time (the QDS pass decodes, and so checks,
     every stored record). Each process peaks at its own matrix + the
     QDS bytes + one row chunk.
  3. After its fit the parent frees its matrix and scores its model on
     its train rows, taken again, then takes the test split as float64,
     once for both models, in one more pass and scores its model and the
     child's on it. Each is scored in one piece (in row chunks, BLAS can
     round a logit of a short final chunk differently), one at a time.
The sequential fallback runs the baseline arm first, and frees its
matrix before the quantized one is built, so it peaks at the baseline
matrix + the QDS bytes + one row chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .dataset import DatasetRows
from .qds import QdsRecords
from .quantizer import row_chunks
from .sensitivity import LogisticModel, _softmax

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
            _softmax(probs, stat)
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


def train(values, labels, num_classes: int, config: TrainConfig):
    """Fit the constant recipe on the float32 rows values, labelled labels;
    returns the model and its per-epoch mean losses. With epochs=0 the
    model is the seeded initialization folded through the normalization."""
    if len(values) == 0:
        raise ValueError("cannot train on an empty dataset")
    x = _StandardizedRows(values)
    return _descend(x, x.mean, x.std, labels, num_classes, config)


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


def fit_scoring_model(values, labels, num_classes: int, seed: int = 42) -> LogisticModel:
    """Model state used for sensitivity scoring: one SGD pass over the
    float32 rows values, labelled labels, from the seeded initialization.
    OpenBLAS runs on one thread, which is faster for its batch-sized
    products."""
    with parallel.one_blas_thread():
        return train(values, labels, num_classes, TrainConfig(epochs=1, seed=seed))[0]


def _check_same_dataset(stored: QdsRecords, original: DatasetRows) -> None:
    """Reject a container that was not quantized from the dataset that
    original reads."""
    header, labels = stored.header, original.labels
    for what, theirs, ours in (
        ("sample count", header.sample_count, len(labels)),
        ("sample shape", header.shape, original.shape),
        ("class count", header.num_classes, original.num_classes),
    ):
        if theirs != ours:
            raise ValueError(f"quantized file has {what} {theirs}, dataset has {ours}")
    bad = np.flatnonzero(stored.labels != labels[stored.kept])
    if bad.size:
        row = bad[0]
        raise ValueError(f"record {stored.kept[row]}: quantized file has label "
                         f"{stored.labels[row]}, dataset has {labels[stored.kept[row]]}")


def _arm(source, rows: np.ndarray, config: TrainConfig):
    """The model fit on the rows of the row source, and its loss curve."""
    return _descend(*_standardized(source.take(rows, np.float64)),
                    source.labels[rows], source.num_classes, config)


def compare(dataset_path, quantized_path, config: TrainConfig) -> EvalReport:
    """Train on the dataset file's original samples and on the QDS file's
    dequantized ones, and report the accuracy gap. The two arms train at
    once where they can (see the module docstring)."""
    original = DatasetRows(dataset_path)
    stored = QdsRecords(quantized_path)
    _check_same_dataset(stored, original)
    train_idx, test_idx = stratified_split(original.labels, config.seed)
    rows = np.flatnonzero(np.isin(stored.kept, train_idx))  # the stored train rows
    if rows.size == 0:
        raise ValueError("empty training set: every sample was dropped")
    with parallel.started(lambda: _arm(original, train_idx, config)[0]) as result:
        quant_model, curve = _arm(stored, rows, config)
        train_acc = _accuracy(quant_model, stored.take(rows, np.float64), stored.labels[rows])
        test_split = original.take(test_idx, np.float64), original.labels[test_idx]
        quant_acc = _accuracy(quant_model, *test_split)
        baseline_acc = _accuracy(result(), *test_split)
    return EvalReport(
        train_accuracy=train_acc,
        test_accuracy=quant_acc,
        loss_curve=curve,
        accuracy_delta=quant_acc - baseline_acc,
        baseline_test_accuracy=baseline_acc,
    )
