import dataclasses
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from reference import synth_half_noise

from dsquant import quantizer, trainer
from dsquant.allocator import AllocationConfig, allocate
from dsquant.dataset import (
    Dataset,
    SampleShape,
    read_dataset_file,
    synth_blobs,
    write_dataset_file,
)
from dsquant.qds import QdsRecords, write_qds
from dsquant.sensitivity import LogisticModel, _softmax, score_dataset
from dsquant.trainer import (
    EvalReport,
    TrainConfig,
    compare,
    evaluate,
    fit_scoring_model,
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
        config = TrainConfig(epochs=0)
        model = train(blobs, config)
        init = LogisticModel.seeded(3, 16, config.seed)
        x = blobs.values.astype(np.float64)
        mean, std = x.mean(axis=0), x.std(axis=0)
        std[std < 1e-8] = 1.0
        # the initialization, folded through the normalization
        weights = init.weights / std
        np.testing.assert_array_equal(model.weights, weights)
        np.testing.assert_array_equal(model.bias, init.bias - weights @ mean)

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
    def test_divergence_reported(self, blobs, monkeypatch):
        monkeypatch.setattr(trainer, "LEARNING_RATE", 1e200)
        monkeypatch.setattr(trainer, "WEIGHT_DECAY", 1.0)
        with pytest.raises(RuntimeError, match="diverged"):
            train(blobs, TrainConfig(epochs=3))

    def test_loss_mostly_non_increasing(self, blobs):
        _, curve = _fit(blobs, TrainConfig(epochs=15))
        violations = sum(b > a for a, b in zip(curve, curve[1:]))
        assert violations <= 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    def test_config_is_epochs_and_seed(self):
        # the SGD recipe is constant; only the run length and seed vary
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["epochs", "seed"]


def reference_fit(dataset, config):
    """The fit as first written, with full-size float64 temporaries:
    astype, np.std and (x - mean) / std. The hyper-parameters are the
    literal defaults TrainConfig had when they were still fields (batch
    64, learning rate 0.1, momentum 0.9, weight decay 2e-4, normalized),
    so this also checks that the constant recipe is that configuration."""
    batch_size, learning_rate, momentum, weight_decay = 64, 0.1, 0.9, 2e-4
    x = dataset.values.astype(np.float64)
    y = dataset.labels
    n, dim = x.shape
    classes = dataset.num_classes
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-8] = 1.0
    x = (x - mean) / std
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
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            xb, tb = x[batch], onehot[batch]
            probs = _softmax(xb @ weights.T + bias)
            epoch_loss += -np.log(
                np.maximum(probs[np.arange(len(batch)), y[batch]], 1e-300)
            ).sum()
            residual = (probs - tb) / len(batch)
            grad_w = residual.T @ xb + weight_decay * weights
            grad_b = residual.sum(axis=0)
            vel_w = momentum * vel_w - learning_rate * grad_w
            vel_b = momentum * vel_b - learning_rate * grad_b
            weights = weights + vel_w
            bias = bias + vel_b
        losses.append(epoch_loss / n)
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
    def test_bitwise_equal_to_reference(self, n, dim, subset):
        dset = _varied(n, dim)
        rows = None
        if subset:
            rows = np.sort(np.random.default_rng(1).permutation(n)[:max(1, 2 * n // 3)])
        config = TrainConfig(epochs=2, seed=3)
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
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", chunk)
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
        model = LogisticModel(np.zeros((2, 4)), np.zeros(2))
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
            evaluate(LogisticModel(np.zeros((3, 7)), np.zeros(3)), blobs)


class TestStratifiedSplit:
    def test_disjoint_and_covering(self, blobs):
        train_idx, test_idx = stratified_split(blobs, seed=1)
        merged = np.sort(np.concatenate([train_idx, test_idx]))
        np.testing.assert_array_equal(merged, np.arange(len(blobs)))

    def test_per_class_proportions(self, blobs):
        _, test_idx = stratified_split(blobs, seed=1)
        for c in range(3):
            assert np.sum(blobs.labels[test_idx] == c) == 20

    def test_seeded(self, blobs):
        a = stratified_split(blobs, seed=5)
        b = stratified_split(blobs, seed=5)
        np.testing.assert_array_equal(a[0], b[0])


def _dataset_file(tmp_path, dset, name="data.dsr"):
    path = tmp_path / name
    write_dataset_file(dset, path)
    return path


def reference_compare(dataset_path, quantized_path, config):
    """compare as first written: one process, the baseline arm first,
    a float32 dequantized training set, and evaluate() throughout."""
    original = read_dataset_file(dataset_path)
    stored = QdsRecords(quantized_path)
    train_idx, test_idx = stratified_split(original, config.seed)
    test_set = original.subset(test_idx)
    baseline_acc = evaluate(train(original, config, rows=train_idx), test_set)
    quant_train = stored.training_set(train_idx)
    quant_model, curve = _fit(quant_train, config)
    quant_acc = evaluate(quant_model, test_set)
    return EvalReport(evaluate(quant_model, quant_train), quant_acc, curve,
                      quant_acc - baseline_acc, baseline_acc)


@pytest.fixture(scope="module")
def pruned(tmp_path_factory):
    """A dataset file and a QDS file of it at widths 8, 4 and 0."""
    tmp_path = tmp_path_factory.mktemp("pruned")
    dset = synth_blobs(4, 48, 150, 2.0, seed=3)
    scores = score_dataset(dset, fit_scoring_model(dset), 4)
    write_qds(dset, allocate(scores, AllocationConfig((8, 4, 0))), tmp_path / "data.qds")
    return _dataset_file(tmp_path, dset), tmp_path / "data.qds"


class TestCompare:
    def test_16bit_uniform_preserves_accuracy(self, tmp_path):
        dset = synth_blobs(3, 64, 1000, 0.5, seed=0)
        cfg = AllocationConfig((16,))
        plan = allocate(np.zeros(len(dset)), cfg)
        path = tmp_path / "u16.qds"
        write_qds(dset, plan, path)
        report = compare(_dataset_file(tmp_path, dset), path, TrainConfig(epochs=10))
        assert isinstance(report, EvalReport)
        assert abs(report.accuracy_delta) <= 0.01
        assert len(report.loss_curve) == 10

    def test_everything_dropped_is_an_error(self, tmp_path, forks):
        dset = synth_blobs(3, 8, 20, 0.5, seed=0)
        from dsquant.allocator import AllocationPlan
        plan = AllocationPlan.from_assignments(np.zeros(len(dset), np.int32))
        path = tmp_path / "all0.qds"
        write_qds(dset, plan, path)
        with pytest.raises(ValueError, match="empty training set"):
            compare(_dataset_file(tmp_path, dset), path, TrainConfig(epochs=1))
        assert forks == []  # rejected before any training

    @pytest.mark.parametrize("fork", [True, False], ids=["concurrent", "inline"])
    def test_both_paths_match_the_reference(self, pruned, forks, monkeypatch, fork):
        monkeypatch.setattr(trainer, "_fork_arms", lambda one_blas_thread: fork)
        config = TrainConfig(epochs=4, seed=5)
        report = compare(*pruned, config)
        assert len(forks) == int(fork)
        # EvalReport equality compares every float and the loss curve exactly
        assert report == reference_compare(*pruned, config)
        assert len(report.loss_curve) == 4

    def test_arms_run_concurrently_on_two_cores(self, pruned, forks):
        if len(os.sched_getaffinity(0)) < 2 or trainer._openblas_threads() is None:
            pytest.skip("needs two usable cores and a settable OpenBLAS")
        compare(*pruned, TrainConfig(epochs=1))
        assert len(forks) == 1

    def test_fits_run_on_one_blas_thread_and_restore_the_count(self, pruned,
                                                                monkeypatch):
        controls = trainer._openblas_threads()
        if controls is None:
            pytest.skip("NumPy's BLAS is not a settable OpenBLAS")
        get, set_ = controls
        descend, seen = trainer._descend, []

        def recording(*args):
            seen.append(get())
            return descend(*args)

        monkeypatch.setattr(trainer, "_descend", recording)
        before = get()
        set_(3)
        try:
            compare(*pruned, TrainConfig(epochs=1))
            assert get() == 3
        finally:
            set_(before)
        # inline both fits record here; forked, the child's record stays there
        assert seen and set(seen) == {1}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_child_divergence_is_raised_in_the_parent(self, pruned, monkeypatch):
        parent, descend = os.getpid(), trainer._descend

        def diverge_in_child(*args):
            if os.getpid() != parent:
                trainer.LEARNING_RATE = 1e200
            return descend(*args)

        monkeypatch.setattr(trainer, "_descend", diverge_in_child)
        monkeypatch.setattr(trainer, "_fork_arms", lambda one_blas_thread: True)
        with pytest.raises(RuntimeError, match=r"^training diverged \(non-finite loss\)$"):
            compare(*pruned, TrainConfig(epochs=2))

    def test_child_killed_by_a_signal_is_an_error(self):
        def killed():
            os.kill(os.getpid(), signal.SIGKILL)

        with trainer._Started(killed, fork=True) as started:
            with pytest.raises(RuntimeError, match="exited with code -9"):
                started.result()

    def test_leaving_the_block_kills_and_reaps_a_running_child(self, forks):
        with pytest.raises(KeyError):
            with trainer._Started(lambda: time.sleep(60), fork=True):
                raise KeyError("the parent's arm failed")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_child_takes_the_default_stop_signal_handlers(self):
        def defaults() -> float:
            return float(signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
                         and signal.getsignal(signal.SIGINT) is signal.SIG_DFL)

        previous = signal.signal(signal.SIGTERM, lambda *args: None)  # as cli.main sets
        try:
            with trainer._Started(defaults, fork=True) as started:
                assert started.result() == 1.0
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_child_result_is_sent_bitwise(self):
        value = 1 / 3 + 2 ** -52
        with trainer._Started(lambda: value, fork=True) as started:
            assert started.result() == value

    def test_adaptive_beats_fixed_on_half_noise(self, tmp_path):
        # half the samples are label-free lattice noise: the adaptive
        # plan drops them (their gradients barely move under probing)
        # while the fixed plan keeps degraded versions of everything
        margins = []
        for seed in range(2):
            dset = synth_half_noise(3, 32, 150, 0.05, seed=seed)
            dsr = _dataset_file(tmp_path, dset, f"half-noise{seed}.dsr")
            model = fit_scoring_model(dset, seed=42 + seed)
            scores = score_dataset(dset, model, 4)
            adaptive = allocate(scores, AllocationConfig((8, 0)))
            fixed = allocate(scores, AllocationConfig((4,)))
            assert adaptive.b_avg == fixed.b_avg == 4.0
            config = TrainConfig(epochs=15, seed=100 + seed)
            deltas = {}
            for name, plan in (("adaptive", adaptive), ("fixed", fixed)):
                path = tmp_path / f"{name}{seed}.qds"
                write_qds(dset, plan, path)
                deltas[name] = compare(dsr, path, config).accuracy_delta
            margins.append(deltas["adaptive"] - deltas["fixed"])
        assert np.mean(margins) > 0
