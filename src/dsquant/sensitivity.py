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
"""

from __future__ import annotations

import numpy as np

from .dataset import read_indexed, write_indexed
from .quantizer import dequantize_rows, quantize_rows, row_chunks

NORM_FLOOR = 1e-12

DEFAULT_PROBE_BIT_WIDTH = 4


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

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


def score_dataset(dataset, model: LogisticModel,
                  probe_bit_width: int = DEFAULT_PROBE_BIT_WIDTH) -> np.ndarray:
    """Score every sample; output index i corresponds to sample i."""
    scores = np.zeros(len(dataset), dtype=np.float64)
    for chunk in row_chunks(len(dataset), dataset.shape.element_count):
        values = dataset.values[chunk]
        probed = dequantize_rows(*quantize_rows(values, probe_bit_width))
        x, x_tilde = values.astype(np.float64), probed.astype(np.float64)
        onehot = np.eye(model.num_classes)[dataset.labels[chunk]]
        r, r_tilde = model.probabilities(x) - onehot, model.probabilities(x_tilde) - onehot
        dot = _row_dot(r, r_tilde) * (_row_dot(x, x_tilde) + 1.0)
        norm = np.sqrt(_row_dot(r, r) * (_row_dot(x, x) + 1.0))
        norm_tilde = np.sqrt(_row_dot(r_tilde, r_tilde) * (_row_dot(x_tilde, x_tilde) + 1.0))
        # exact fidelity must score exactly zero; near-zero gradients are insensitive
        insensitive = ((values == probed).all(axis=1)
                       | (norm < NORM_FLOOR) | (norm_tilde < NORM_FLOOR))
        cosine = dot / np.where(insensitive, 1.0, norm * norm_tilde)
        scores[chunk] = np.where(insensitive, 0.0, 1.0 - np.clip(cosine, -1.0, 1.0))
    return scores


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
