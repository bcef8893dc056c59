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
where it can compare() runs them at once: the baseline arm in a forked
child, the quantized arm in the caller's process, each with OpenBLAS on
one thread. The child sends back only its test accuracy, as the 8 bytes
of a "<d", so the report is the same bit for bit whether the arms run at
once or one after the other.

Memory: a fit holds one float64 copy of its training rows, standardized
in place a row chunk (quantizer.row_chunks) at a time, so it peaks at 8
bytes per trained element plus one chunk. compare() orders its work to
keep the sum over its two processes near a single process's peak:
  1. It reads the original float32 data, keeps its float32 test split
     and the QDS file's bytes, builds and standardizes the baseline
     matrix and frees the original. Peak: original + test split + QDS
     bytes + the baseline matrix.
  2. It forks. The SGD only reads the baseline matrix, so the child and
     the parent share its pages rather than copy them, and the parent
     drops its reference. The parent builds the quantized matrix
     straight from decoded QDS chunks, with no float32 training set.
     Summed over both processes: test split + QDS bytes + the two
     matrices. That is below step 1 while at most 5/8 of the train
     split is kept (the two matrices together then take no more than
     the original plus the baseline matrix).
  3. After reaping the child, the parent evaluates: the test split and
     the dequantized train rows are each cast to float64 in one piece
     (in row chunks, BLAS can round a logit of a short final chunk
     differently), one at a time.
The sequential fallback runs the same steps with the baseline arm
finished, and its matrix freed, before the quantized one is built.

Forking: on Python >= 3.12, os.fork() warns when the process has more
than one thread. compare() forks only when no other Python thread runs,
and OpenBLAS stops its worker threads in its own fork handler, so the
child holds only the forking thread; that one warning is silenced for
the fork call alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import struct
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, read_dataset_file
from .qds import QdsRecords
from .quantizer import dequantize_rows, row_chunks
from .sensitivity import LogisticModel, _softmax

BATCH_SIZE = 64
LEARNING_RATE = 0.1
MOMENTUM = 0.9
WEIGHT_DECAY = 2e-4
TEST_FRACTION = 0.2  # held out of each class by compare()

_STD_FLOOR = 1e-8

# (get, set) thread-count symbols of the OpenBLAS builds NumPy ships:
# NumPy 2 wheels, NumPy 1 wheels, a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


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


def _gathered(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values[rows] as one float64 matrix, gathered a row chunk at a time."""
    x = np.empty((len(rows), values.shape[1]))
    for chunk in row_chunks(*x.shape):
        x[chunk] = values[rows[chunk]]
    return x


def _dequantized(stored: QdsRecords, rows: np.ndarray) -> np.ndarray:
    """The stored records at rows (none a tombstone) dequantized into one
    float64 matrix, a width group and row chunk at a time."""
    x = np.empty((len(rows), stored.header.shape.element_count))
    for positions, _, codes, scales in stored.decode(rows):
        x[positions] = dequantize_rows(codes, scales)
    return x


def _standardized(x: np.ndarray):
    """Standardize x in place per feature; returns (x, mean, std).

    Bit for bit this is mean(axis=0), std(axis=0) and (x - mean) / std,
    without their full-size temporaries: an axis-0 sum adds rows in
    order, so the squared deviations are summed a row chunk at a time
    with the running total folded into each chunk's first row.
    """
    n, dim = x.shape
    mean = x.mean(axis=0)
    x -= mean
    total = np.zeros(dim)
    for chunk in row_chunks(n, dim):
        squares = np.square(x[chunk])
        squares[0] += total
        total = squares.sum(axis=0)
    std = np.sqrt(total / n)
    std[std < _STD_FLOOR] = 1.0
    x /= std
    return x, mean, std


def _descend(x, mean, std, y, classes: int, config: TrainConfig):
    """Fit the recipe on the standardized matrix x, whose rows are
    labelled y; x is only read. Returns the model on raw inputs and the
    per-epoch mean loss curve."""
    n, dim = x.shape
    model = LogisticModel.seeded(classes, dim, config.seed)
    weights, bias = model.weights, model.bias
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    onehot = np.eye(classes)[y]
    rng = np.random.default_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            batch = perm[start:start + BATCH_SIZE]
            xb, tb = x[batch], onehot[batch]
            probs = _softmax(xb @ weights.T + bias)
            epoch_loss += -np.log(
                np.maximum(probs[np.arange(len(batch)), y[batch]], 1e-300)
            ).sum()
            residual = (probs - tb) / len(batch)
            grad_w = residual.T @ xb + WEIGHT_DECAY * weights
            grad_b = residual.sum(axis=0)
            vel_w = MOMENTUM * vel_w - LEARNING_RATE * grad_w
            vel_b = MOMENTUM * vel_b - LEARNING_RATE * grad_b
            weights = weights + vel_w
            bias = bias + vel_b
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise RuntimeError("training diverged (non-finite loss)")
        losses.append(mean_loss)

    # fold (x - mean)/std into the weights so the model takes raw inputs
    weights = weights / std
    bias = bias - weights @ mean
    return LogisticModel(weights, bias), tuple(losses)


def _fit(dataset: Dataset, config: TrainConfig, rows=None):
    """Train on dataset (or on its rows, in that order); returns the
    model and the per-epoch mean loss curve."""
    rows = np.arange(len(dataset)) if rows is None else np.asarray(rows, dtype=np.int64)
    y = dataset.labels[rows]
    if len(y) == 0:
        raise ValueError("cannot train on an empty dataset")
    return _descend(*_standardized(_gathered(dataset.values, rows)),
                    y, dataset.num_classes, config)


def train(dataset: Dataset, config: TrainConfig, rows=None) -> LogisticModel:
    """Fit the constant recipe on dataset, or on its rows; with epochs=0
    this is the seeded initialization folded through the normalization."""
    model, _ = _fit(dataset, config, rows)
    return model


def _accuracy(model: LogisticModel, values, labels) -> float:
    predictions = np.argmax(model.logits(values), axis=1)
    return float(np.mean(predictions == labels)) if len(labels) else 0.0


def evaluate(model: LogisticModel, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties pick the lowest class."""
    if model.input_dim != dataset.shape.element_count:
        raise ValueError("model input dimension does not match dataset")
    return _accuracy(model, dataset.values, dataset.labels)


def stratified_split(dataset: Dataset, seed: int):
    """Seeded per-class TEST_FRACTION split; returns (train_indices, test_indices)."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        members = members[rng.permutation(members.size)]
        n_test = int(round(TEST_FRACTION * members.size))
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    return (np.sort(np.concatenate(train_idx)),
            np.sort(np.concatenate(test_idx)))


def fit_scoring_model(dataset: Dataset, seed: int = 42) -> LogisticModel:
    """Model state used for sensitivity scoring: one SGD pass over the
    full-precision data from the seeded initialization."""
    return train(dataset, TrainConfig(epochs=1, seed=seed))


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


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS that NumPy
    loaded, found by symbol; None without one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    except OSError:  # no /proc, or a library that will not load
        pass
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore the caller's
    count after it; yields whether the count could be set."""
    controls = _openblas_threads()
    if controls is None:
        yield False
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)


def _fork_arms(one_blas_thread: bool) -> bool:
    """Whether to train the arms at once: two usable cores, one BLAS
    thread per process (else the processes' BLAS threads oversubscribe
    the cores), and no other Python thread that a fork could strand."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (one_blas_thread and affinity is not None and len(affinity(0)) >= 2
            and threading.active_count() == 1)


def _run_child(arm, reader: int, writer: int, mask):
    """The forked child: run arm, send back its result as "<d" or its
    exception pickled, and leave without the parent's cleanup."""
    status = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(reader)
        try:
            message, status = struct.pack("<d", arm()), 0
        except Exception as exc:  # anything else exits with status 1
            message = pickle.dumps(exc)
        with open(writer, "wb") as fh:
            fh.write(message)
    finally:
        os._exit(status)


class _Started:
    """arm(), which returns a float, started on entering the with block:
    in a forked child with fork, else run here and then. Once it starts
    no reference to arm is kept here, so with fork the child's copy of
    its data is the only one left. result() returns its value or raises
    its exception; leaving the block kills and reaps a child still there."""

    def __init__(self, arm, fork: bool):
        self._arm, self._fork = arm, fork
        self._pid = self._pipe = None

    def __enter__(self):
        arm, self._arm = self._arm, None
        if not self._fork:
            self._value = arm()
            return self
        reader, writer = os.pipe()
        self._pipe = open(reader, "rb")
        # SIGINT and SIGTERM wait until the child has reset its handlers and
        # the parent holds the child's pid, so neither runs the other's cleanup
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            try:
                with warnings.catch_warnings():  # see "Forking" in the module docstring
                    warnings.filterwarnings(
                        "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                    self._pid = os.fork()
                if self._pid == 0:
                    _run_child(arm, reader, writer, mask)
            finally:
                os.close(writer)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a pending signal raises here
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()
        if self._pipe is not None:
            self._pipe.close()

    def _reap(self) -> int:
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(status)

    def result(self) -> float:
        if not self._fork:
            return self._value
        message = self._pipe.read()
        code = self._reap()
        if code == 0:
            return struct.unpack("<d", message)[0]
        if message:
            raise pickle.loads(message)
        raise RuntimeError(f"baseline training process exited with code {code}")


def _baseline_arm(original: Dataset, rows: np.ndarray, test_set: Dataset,
                  config: TrainConfig):
    """Build the baseline arm's standardized matrix now; the returned
    function fits on it, frees it, and returns the test accuracy."""
    y, classes = original.labels[rows], original.num_classes
    matrix = [_standardized(_gathered(original.values, rows))]

    def run() -> float:
        model, _ = _descend(*matrix.pop(), y, classes, config)
        return evaluate(model, test_set)
    return run


def compare(dataset_path, quantized_path, config: TrainConfig) -> EvalReport:
    """Train on the dataset file's original samples and on the QDS file's
    dequantized ones, and report the accuracy gap. The two arms train at
    once where they can (see the module docstring)."""
    original = read_dataset_file(dataset_path)
    stored = QdsRecords(quantized_path)
    _check_same_dataset(stored, original)
    train_idx, test_idx = stratified_split(original, config.seed)
    kept = train_idx[stored.widths[train_idx] > 0]
    if kept.size == 0:
        raise ValueError("empty training set: every sample was dropped")
    test_set = original.subset(test_idx)
    baseline = _baseline_arm(original, train_idx, test_set, config)
    del original  # its float32 values must not outlive the fork
    labels, classes = stored.labels[kept], stored.header.num_classes
    with _one_blas_thread() as pinned, _Started(baseline, _fork_arms(pinned)) as started:
        del baseline  # the baseline matrix now lives only where the arm ran or runs
        quant_model, curve = _descend(*_standardized(_dequantized(stored, kept)),
                                      labels, classes, config)
        baseline_acc = started.result()
    quant_acc = evaluate(quant_model, test_set)
    return EvalReport(
        train_accuracy=_accuracy(quant_model, _dequantized(stored, kept), labels),
        test_accuracy=quant_acc,
        loss_curve=curve,
        accuracy_delta=quant_acc - baseline_acc,
        baseline_test_accuracy=baseline_acc,
    )
