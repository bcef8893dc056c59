"""Per-sample quantization sensitivity from gradient deviation.

The score of a sample is the cosine distance between the model-parameter
gradients computed on the original values and on the values after a
quantize/dequantize round trip at a probe bit-width:

    S = 1 - <g_orig, g_quant> / (||g_orig|| * ||g_quant||)

so S lies in [0, 2], is invariant to positive rescaling of either
gradient, and is 0 when quantization leaves the gradient unchanged. If
either gradient norm falls below 1e-12 the sample is treated as
insensitive (S = 0).

score_dataset uses the closed form of LogisticModel's gradient
g = [r (x) x, r], r = p - onehot(y): <g1, g2> = (r1.r2)(x1.x2 + 1) and
||g||^2 = ||r||^2 (||x||^2 + 1), so it never builds the C x D gradients.
Its probe is the QDS writer's round trip,
dequantize_rows(*quantize_rows(...)), so the reconstructed sample is bit
for bit, zero signs included, what a QDS file stores at the probe width.
_softmax, in place, serves this pass and trainer's SGD step alike.

The scoring pass is elementwise work plus two small GEMMs per row chunk
(quantizer.row_chunks), so it splits by rows through parallel.halves;
the child sends back its scores, the same bits either way.

Memory: each process reads its own row chunks through rows.chunks(), so
from a DatasetRows it holds one chunk of float32 rows. Beyond that and
the model, each process holds its half of the scores and one chunk's
temporaries: x and x_tilde, two float64 dataset.chunk_buffer views (the
rows are scaled in x_tilde, and the products land back in it), and the
int16 codes, with the float32 |values| that the scales take before the
codes exist: at most 20 bytes per chunk element (20 MiB at
quantizer.CHUNK_ELEMENTS). Allocated per chunk instead, the two float64
arrays cost a CIFAR-shaped score 105k minor faults against 22k.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .dataset import chunk_buffer, read_indexed, write_indexed
from .quantizer import dequantize_rows, quantize_rows, row_chunks

NORM_FLOOR = 1e-12

DEFAULT_PROBE_BIT_WIDTH = 4


def _softmax(logits: np.ndarray, row_stat: np.ndarray = None) -> np.ndarray:
    """Softmax over logits' last axis, in place; row_stat, a (..., 1)
    buffer for each row's max and then sum, may be passed by the caller."""
    stat = np.empty(logits.shape[:-1] + (1,)) if row_stat is None else row_stat
    np.maximum.reduce(logits, axis=-1, keepdims=True, out=stat)
    logits -= stat
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=-1, keepdims=True, out=stat)
    logits /= stat
    return logits


class LogisticModel:
    """Multinomial logistic regression with exact analytic gradients.

    For logits u = W d + beta and p = softmax(u), the cross-entropy
    gradient is dL/dW = (p - onehot(y)) d^T and dL/dbeta = p - onehot(y).
    """

    def __init__(self, weights, bias):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        bias = np.ascontiguousarray(bias, dtype=np.float64)
        if weights.ndim != 2 or bias.shape != (weights.shape[0],):
            raise ValueError("weights must be (C, D) with bias (C,)")
        self.weights = weights
        self.bias = bias

    @classmethod
    def seeded(cls, num_classes: int, input_dim: int, seed: int) -> "LogisticModel":
        rng = np.random.default_rng(seed)
        weights = 0.01 * rng.standard_normal((num_classes, input_dim))
        return cls(weights, np.zeros(num_classes))

    def logits(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) @ self.weights.T + self.bias

    def probabilities(self, values) -> np.ndarray:
        return _softmax(self.logits(values))

    def loss(self, values, label: int) -> float:
        p = self.probabilities(values)
        return float(-np.log(max(p[label], 1e-300)))

    def gradient(self, values, label: int) -> np.ndarray:
        """Flat gradient [dW.ravel(), dbias] of the cross-entropy loss."""
        values = np.asarray(values, dtype=np.float64)
        residual = self.probabilities(values)
        residual[label] -= 1.0
        return np.concatenate([np.outer(residual, values).ravel(), residual])

    def copy(self) -> "LogisticModel":
        return LogisticModel(self.weights.copy(), self.bias.copy())


def sensitivity_score(g_orig, g_quant) -> float:
    """Cosine distance between two gradients, 0 if either is near zero."""
    g_orig = np.asarray(g_orig, dtype=np.float64)
    g_quant = np.asarray(g_quant, dtype=np.float64)
    if g_orig.shape != g_quant.shape:
        raise ValueError("gradient length mismatch")
    if np.array_equal(g_orig, g_quant):
        return 0.0  # exact fidelity must score exactly zero
    n1 = np.linalg.norm(g_orig)
    n2 = np.linalg.norm(g_quant)
    if n1 < NORM_FLOOR or n2 < NORM_FLOOR:
        return 0.0
    cosine = np.clip(np.dot(g_orig, g_quant) / (n1 * n2), -1.0, 1.0)
    return float(1.0 - cosine)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _chunk_scores(values, labels, model, probe_bit_width: int, buffers) -> np.ndarray:
    """The scores of the float32 rows values, labelled labels; buffers are
    two float64 arrays of its shape, overwritten with x, x_tilde."""
    x, x_tilde = buffers
    np.copyto(x, values)
    # scaled in x_tilde, then the float32 products widened back into it
    dequantize_rows(*quantize_rows(values, probe_bit_width, x_tilde), x_tilde)
    picked = (np.arange(len(x)), labels)
    r, r_tilde = model.probabilities(x), model.probabilities(x_tilde)
    r[picked] -= 1.0  # r = p - onehot(y)
    r_tilde[picked] -= 1.0
    dot = _row_dot(r, r_tilde) * (_row_dot(x, x_tilde) + 1.0)
    norm = np.sqrt(_row_dot(r, r) * (_row_dot(x, x) + 1.0))
    norm_tilde = np.sqrt(_row_dot(r_tilde, r_tilde) * (_row_dot(x_tilde, x_tilde) + 1.0))
    # exact fidelity must score exactly zero; near-zero gradients are insensitive
    insensitive = ((x == x_tilde).all(axis=1)
                   | (norm < NORM_FLOOR) | (norm_tilde < NORM_FLOOR))
    cosine = dot / np.where(insensitive, 1.0, norm * norm_tilde)
    return np.where(insensitive, 0.0, 1.0 - np.clip(cosine, -1.0, 1.0))


def _scores(rows, model: LogisticModel, slices, probe_bit_width: int) -> np.ndarray:
    """The scores of the rows that slices, consecutive row chunks, cover."""
    n, dim = rows.labels.size, rows.shape.element_count
    xs, x_tildes = (chunk_buffer(slices, n, dim, np.float64) for _ in range(2))
    scores = [_chunk_scores(values, rows.labels[chunk], model, probe_bit_width, (x, x_tilde))
              for (chunk, values), x, x_tilde in zip(rows.chunks(slices), xs, x_tildes)]
    return np.concatenate(scores) if scores else np.zeros(0)


def score_dataset(rows, model: LogisticModel,
                  probe_bit_width: int = DEFAULT_PROBE_BIT_WIDTH) -> np.ndarray:
    """Score every sample of rows, a row source (dataset.DatasetRows,
    CifarRecords, RawRows or synth_blobs); output index i is sample i's.
    A forked child may score half the rows (parallel.halves)."""
    chunks = row_chunks(rows.labels.size, rows.shape.element_count)
    return np.concatenate(parallel.halves(
        chunks, lambda slices: _scores(rows, model, slices, probe_bit_width)))


def gradient_check(model: LogisticModel, values, label: int, step: float) -> float:
    """Max deviation of the analytic gradient from central differences.

    Returns the largest elementwise difference normalized by the
    gradient's own max magnitude (the loss is smooth, so tiny entries
    would otherwise dominate through finite-difference noise).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    analytic = model.gradient(values, label)
    numeric = np.zeros_like(analytic)
    n_w = model.weights.size
    for k in range(analytic.size):
        probe = model.copy()
        flat = probe.weights.ravel() if k < n_w else probe.bias
        idx = k if k < n_w else k - n_w
        orig = flat[idx]
        flat[idx] = orig + step
        up = probe.loss(values, label)
        flat[idx] = orig - step
        down = probe.loss(values, label)
        numeric[k] = (up - down) / (2.0 * step)
    denom = max(float(np.abs(analytic).max()), NORM_FLOOR)
    return float(np.abs(numeric - analytic).max() / denom)


def write_scores(scores, path) -> None:
    """One `index<TAB>score` line per sample, 9 significant digits."""
    write_indexed(path, scores, ".9g")


def read_scores(path) -> np.ndarray:
    """Read a score file back into an index-ordered array of finite scores."""
    _, scores = read_indexed(path, np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"{path}: score at index {bad[0]} is not finite "
                         f"({scores[bad[0]]})")
    return scores
