import tracemalloc

import numpy as np
import pytest

from dsquant import trainer
from dsquant.allocator import AllocationConfig, allocate
from dsquant.dataset import Dataset, SampleShape, synth_blobs, synth_half_noise
from dsquant.qds import write_qds
from dsquant.sensitivity import LogisticModel, _softmax, score_dataset
from dsquant.trainer import (
    EvalReport,
    TrainConfig,
    compare,
    evaluate,
    fit_scoring_model,
    initial_model,
    stratified_split,
    train,
    _fit,
)


@pytest.fixture(scope="module")
def blobs():
    return synth_blobs(3, 16, 100, 0.01, seed=2)


class TestTrain:
    def test_separable_blobs_fit_almost_perfectly(self, blobs):
        model = train(blobs, TrainConfig(epochs=10))
        assert evaluate(model, blobs) >= 0.99

    def test_zero_epochs_returns_initialization(self, blobs):
        config = TrainConfig(epochs=0, normalize=False)
        model = train(blobs, config)
        init = initial_model(3, 16, config.seed)
        np.testing.assert_array_equal(model.weights, init.weights)
        np.testing.assert_array_equal(model.bias, init.bias)

    def test_bitwise_deterministic(self, blobs):
        a = train(blobs, TrainConfig(epochs=3))
        b = train(blobs, TrainConfig(epochs=3))
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_empty_dataset_rejected(self):
        empty = Dataset(SampleShape(1, 1, 2), 2,
                        np.zeros((0, 2), np.float32), np.zeros(0, np.int64))
        with pytest.raises(ValueError, match="empty"):
            train(empty, TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self, blobs):
        config = TrainConfig(epochs=3, learning_rate=1e200, weight_decay=1.0,
                             normalize=False)
        with pytest.raises(RuntimeError, match="diverged"):
            train(blobs, config)

    def test_loss_mostly_non_increasing(self, blobs):
        _, curve = _fit(blobs, TrainConfig(epochs=15))
        violations = sum(b > a for a, b in zip(curve, curve[1:]))
        assert violations <= 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


def reference_fit(dataset, config):
    """The fit as first written, with full-size float64 temporaries:
    astype, np.std and (x - mean) / std."""
    x = dataset.values.astype(np.float64)
    y = dataset.labels
    n, dim = x.shape
    classes = dataset.num_classes
    if config.normalize:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-8] = 1.0
        x = (x - mean) / std
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
        losses.append(epoch_loss / n)
    if config.normalize:
        weights = weights / std
        bias = bias - weights @ mean
    return LogisticModel(weights, bias), tuple(losses)


def _varied(n, dim, seed=0):
    """Features with distinct offsets and scales; column 0 is constant
    and column 1's std is nonzero but under the floor."""
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal((n, dim)) * rng.uniform(0.01, 20.0, dim)
              + rng.uniform(-5.0, 5.0, dim)).astype(np.float32)
    values[:, 0] = 0.75
    values[:, 1] = np.arange(n) % 2 * 1e-10
    return Dataset(SampleShape(1, 1, dim), 4, values, rng.integers(0, 4, n))


class TestFitOracle:
    """_fit standardizes one float64 matrix in place, in row chunks; its
    result must equal the full-temporary reference bit for bit."""

    @pytest.mark.parametrize("n, dim, subset", [
        (200, 16, False),
        (200, 16, True),
        (1000, 3072, False),   # three row chunks
        (1000, 3072, True),
        (1, 16, False),
        (1, 16, True),
    ])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_bitwise_equal_to_reference(self, n, dim, subset, normalize):
        dset = _varied(n, dim)
        rows = None
        if subset:
            rows = np.sort(np.random.default_rng(1).permutation(n)[:max(1, 2 * n // 3)])
        config = TrainConfig(epochs=2, batch_size=32, normalize=normalize, seed=3)
        model, curve = _fit(dset, config, rows=rows)
        ref_model, ref_curve = reference_fit(
            dset if rows is None else dset.subset(rows), config)
        assert np.array_equal(model.weights, ref_model.weights)
        assert np.array_equal(model.bias, ref_model.bias)
        assert np.array_equal(np.array(curve), np.array(ref_curve))

    def test_unsorted_rows_train_in_given_order(self, blobs):
        rows = np.random.default_rng(4).permutation(len(blobs))[:150]
        config = TrainConfig(epochs=2)
        a = train(blobs, config, rows=rows)
        b = train(blobs.subset(rows), config)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_empty_rows_rejected(self, blobs):
        with pytest.raises(ValueError, match="empty"):
            train(blobs, TrainConfig(), rows=[])

    def test_peak_memory_is_one_float64_matrix(self, monkeypatch):
        chunk = 1 << 14
        monkeypatch.setattr(trainer, "CHUNK_ELEMENTS", chunk)
        n, dim = 4096, 64  # 16 row chunks
        dset = _varied(n, dim)
        tracemalloc.start()
        try:
            _fit(dset, TrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the matrix plus a few chunk-sized buffers; the full-size
        # temporaries of the reference peak at about three matrices
        assert peak <= 8 * n * dim + 4 * 8 * chunk


class TestEvaluate:
    def test_uniform_logits_pick_class_zero(self):
        from dsquant.sensitivity import LogisticModel
        rng = np.random.default_rng(3)
        dset = Dataset(SampleShape(1, 1, 4), 2,
                       rng.standard_normal((10, 4)).astype(np.float32),
                       np.array([0] * 5 + [1] * 5))
        model = LogisticModel.zeros(2, 4)
        # argmax ties break to class 0, so accuracy is the class-0 share
        assert evaluate(model, dset) == 0.5

    def test_perfect_model_on_train_set(self, blobs):
        model = train(blobs, TrainConfig(epochs=10))
        assert evaluate(model, blobs) >= 0.99

    def test_order_invariant(self, blobs):
        model = train(blobs, TrainConfig(epochs=2))
        perm = np.random.default_rng(0).permutation(len(blobs))
        assert evaluate(model, blobs) == evaluate(model, blobs.subset(perm))

    def test_dimension_mismatch(self, blobs):
        from dsquant.sensitivity import LogisticModel
        with pytest.raises(ValueError, match="dimension"):
            evaluate(LogisticModel.zeros(3, 7), blobs)


class TestStratifiedSplit:
    def test_disjoint_and_covering(self, blobs):
        train_idx, test_idx = stratified_split(blobs, 0.2, seed=1)
        merged = np.sort(np.concatenate([train_idx, test_idx]))
        np.testing.assert_array_equal(merged, np.arange(len(blobs)))

    def test_per_class_proportions(self, blobs):
        _, test_idx = stratified_split(blobs, 0.2, seed=1)
        for c in range(3):
            assert np.sum(blobs.labels[test_idx] == c) == 20

    def test_seeded(self, blobs):
        a = stratified_split(blobs, 0.2, seed=5)
        b = stratified_split(blobs, 0.2, seed=5)
        np.testing.assert_array_equal(a[0], b[0])


class TestCompare:
    def test_16bit_uniform_preserves_accuracy(self, tmp_path):
        dset = synth_blobs(3, 64, 1000, 0.5, seed=0)
        cfg = AllocationConfig("fixed_uniform", (16,))
        plan = allocate(np.zeros(len(dset)), cfg)
        path = tmp_path / "u16.qds"
        write_qds(dset, plan, path)
        report = compare(dset, path, TrainConfig(epochs=10))
        assert isinstance(report, EvalReport)
        assert abs(report.accuracy_delta) <= 0.01
        assert len(report.loss_curve) == 10

    def test_everything_dropped_is_an_error(self, tmp_path):
        dset = synth_blobs(3, 8, 20, 0.5, seed=0)
        plan = allocate(np.zeros(len(dset)),
                        AllocationConfig("fixed_uniform", (8,), prune_ratio=0.0))
        assignments = np.zeros(len(dset), np.int32)
        from dsquant.allocator import AllocationPlan
        plan = AllocationPlan.from_assignments(assignments)
        path = tmp_path / "all0.qds"
        write_qds(dset, plan, path)
        with pytest.raises(ValueError, match="empty training set"):
            compare(dset, path, TrainConfig(epochs=1))

    def test_adaptive_beats_fixed_on_half_noise(self, tmp_path):
        # half the samples are label-free lattice noise: the adaptive
        # plan drops them (their gradients barely move under probing)
        # while the fixed plan keeps degraded versions of everything
        margins = []
        for seed in range(2):
            dset = synth_half_noise(3, 32, 150, 0.05, seed=seed)
            model = fit_scoring_model(dset, "trained", seed=42 + seed)
            scores = score_dataset(dset, model, 4)
            adaptive = allocate(scores, AllocationConfig("adaptive_two_group", (8, 0)))
            fixed = allocate(scores, AllocationConfig("fixed_uniform", (4,)))
            assert adaptive.b_avg == fixed.b_avg == 4.0
            config = TrainConfig(epochs=15, seed=100 + seed)
            deltas = {}
            for name, plan in (("adaptive", adaptive), ("fixed", fixed)):
                path = tmp_path / f"{name}{seed}.qds"
                write_qds(dset, plan, path)
                deltas[name] = compare(dset, path, config).accuracy_delta
            margins.append(deltas["adaptive"] - deltas["fixed"])
        assert np.mean(margins) > 0
