import dataclasses
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from reference import row_subset, synth_half_noise

from dsquant import parallel, quantizer, trainer
from dsquant.allocator import AllocationConfig, AllocationPlan, allocate
from dsquant.dataset import (
    Dataset,
    DatasetRows,
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
    fit_scoring_model,
    stratified_split,
    train,
    _accuracy,
    _descend,
    _fit,
    _standardized,
)


@pytest.fixture(scope="module")
def blobs():
    return synth_blobs(3, 16, 100, 0.01, seed=2)


class TestTrain:
    def test_separable_blobs_fit_almost_perfectly(self, blobs):
        model = train(blobs, TrainConfig(epochs=10))
        assert _accuracy(model, blobs.values, blobs.labels) >= 0.99

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


def _varied(n, dim, seed=0, classes=4):
    """Features with distinct offsets and scales; column 0 is constant
    and column 1's std is nonzero but under the floor."""
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal((n, dim)) * rng.uniform(0.01, 20.0, dim)
              + rng.uniform(-5.0, 5.0, dim)).astype(np.float32)
    values[:, 0] = 0.75
    values[:, 1] = np.arange(n) % 2 * 1e-10
    return Dataset(SampleShape(1, 1, dim), classes, values, rng.integers(0, classes, n))


def _oracle_case(n, dim, subset, classes=4):
    """A TestFitOracle case; the four-class cases keep their first ids."""
    name = f"{n}-{dim}-{subset}" if classes == 4 else f"{n}-{dim}-{classes}classes-{subset}"
    return pytest.param(n, dim, subset, classes, id=name)


class TestFitOracle:
    """_fit sums the mean and variance in row chunks and standardizes
    each batch as it gathers it; its result must equal the full-temporary
    reference bit for bit."""

    @pytest.mark.parametrize("n, dim, subset, classes", [
        _oracle_case(200, 16, False),
        _oracle_case(200, 16, True),
        _oracle_case(1000, 3072, False),   # three row chunks
        _oracle_case(1000, 3072, True),
        _oracle_case(1, 16, False),
        _oracle_case(1, 16, True),
        # a short final batch (or only one), and the widths where a strided
        # or transposed weight layout rounds differently from the reference
        *(_oracle_case(n, dim, subset, classes)
          for n in (1, 63, 64, 65, 130, 200) for dim in (2, 16, 17, 64)
          for classes in (2, 10) for subset in (False, True)),
    ])
    def test_bitwise_equal_to_reference(self, n, dim, subset, classes):
        dset = _varied(n, dim, classes=classes)
        rows = None
        if subset:
            rows = np.sort(np.random.default_rng(1).permutation(n)[:max(1, 2 * n // 3)])
        config = TrainConfig(epochs=2, seed=3)
        trained = dset if rows is None else row_subset(dset, rows)
        model, curve = _fit(trained, config)
        ref_model, ref_curve = reference_fit(trained, config)
        assert np.array_equal(model.weights, ref_model.weights)
        assert np.array_equal(model.bias, ref_model.bias)
        assert np.array_equal(np.array(curve), np.array(ref_curve))

    @pytest.mark.parametrize("n, dim, classes", [
        # one batch, a full one, a short last one and two full ones
        *(pytest.param(n, dim, classes, id=f"{n}-{dim}-{classes}classes")
          for n in (1, 63, 64, 65, 128, 130) for dim in (2, 16, 17, 64) for classes in (2, 10)),
        pytest.param(200, 3072, 10, id="200-3072-10classes"),
    ])
    def test_the_matrix_path_equals_the_reference(self, n, dim, classes):
        # compare's arms descend on a _standardized matrix, not a
        # _StandardizedRows
        dset = _varied(n, dim, classes=classes)
        config = TrainConfig(epochs=2, seed=3)
        model, curve = _descend(*_standardized(dset.values.astype(np.float64)),
                                dset.labels, classes, config)
        ref_model, ref_curve = reference_fit(dset, config)
        assert np.array_equal(model.weights, ref_model.weights)
        assert np.array_equal(model.bias, ref_model.bias)
        assert np.array_equal(np.array(curve), np.array(ref_curve))

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
        # at most one matrix plus a few chunk-sized buffers (the fit now
        # holds no matrix at all, see TestStreamingFit); the full-size
        # temporaries of the reference peak at about three matrices
        assert peak <= 8 * n * dim + 4 * 8 * chunk


class TestStreamingFit:
    """train() standardizes each batch from the float32 rows as it
    gathers it; compare()'s arms descend on one standardized float64
    matrix. Both must give the same fit bit for bit."""

    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "row-subset"])
    def test_equals_the_matrix_fit(self, epochs, subset):
        dset = _varied(1000, 3072)  # three row chunks
        rows = (np.random.default_rng(2).permutation(1000)[:700] if subset
                else np.arange(1000))
        config = TrainConfig(epochs=epochs, seed=7)
        model, curve = _fit(row_subset(dset, rows) if subset else dset, config)
        ref_model, ref_curve = _descend(*_standardized(dset.values[rows].astype(np.float64)),
                                        dset.labels[rows], dset.num_classes, config)
        assert np.array_equal(model.weights, ref_model.weights)
        assert np.array_equal(model.bias, ref_model.bias)
        assert np.array_equal(np.array(curve), np.array(ref_curve))
        trained = train(row_subset(dset, rows) if subset else dset, config)
        assert np.array_equal(trained.weights, model.weights)

    def test_scoring_fit_holds_no_float64_matrix(self):
        n, dim = 2000, 3072
        dset = _varied(n, dim)
        tracemalloc.start()
        try:
            fit_scoring_model(dset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 row chunk (8 MiB) and the model; the matrix alone
        # would be 8 * n * dim
        assert peak < 8 * n * dim / 4

    def test_scoring_fit_runs_on_one_blas_thread_and_restores_the_count(self, blobs,
                                                                       monkeypatch):
        controls = parallel.openblas_threads()
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
            fit_scoring_model(blobs)
            assert get() == 3
        finally:
            set_(before)
        assert seen == [1]


class TestEvaluate:
    """_accuracy, which scores both arms of compare."""

    def test_uniform_logits_pick_class_zero(self):
        values = np.random.default_rng(3).standard_normal((10, 4)).astype(np.float32)
        model = LogisticModel(np.zeros((2, 4)), np.zeros(2))
        # argmax ties break to class 0, so accuracy is the class-0 share
        assert _accuracy(model, values, np.array([0] * 5 + [1] * 5)) == 0.5

    def test_perfect_model_on_train_set(self, blobs):
        model = train(blobs, TrainConfig(epochs=10))
        assert _accuracy(model, blobs.values, blobs.labels) >= 0.99

    def test_order_invariant(self, blobs):
        model = train(blobs, TrainConfig(epochs=2))
        perm = np.random.default_rng(0).permutation(len(blobs))
        assert (_accuracy(model, blobs.values, blobs.labels)
                == _accuracy(model, blobs.values[perm], blobs.labels[perm]))


class TestStratifiedSplit:
    def test_disjoint_and_covering(self, blobs):
        train_idx, test_idx = stratified_split(blobs.labels, seed=1)
        merged = np.sort(np.concatenate([train_idx, test_idx]))
        np.testing.assert_array_equal(merged, np.arange(len(blobs)))

    def test_per_class_proportions(self, blobs):
        _, test_idx = stratified_split(blobs.labels, seed=1)
        for c in range(3):
            assert np.sum(blobs.labels[test_idx] == c) == 20

    def test_seeded(self, blobs):
        a = stratified_split(blobs.labels, seed=5)
        b = stratified_split(blobs.labels, seed=5)
        np.testing.assert_array_equal(a[0], b[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_loop_over_every_class(self, seed):
        # classes 0, 2, 3, 5 and 8 have no samples; the loop over
        # range(num_classes) draws an empty permutation for each of them
        rng = np.random.default_rng(seed)
        labels = rng.choice([1, 4, 6, 7, 9], size=203)
        rng, train_idx, test_idx = np.random.default_rng(seed), [], []
        for c in range(10):
            members = np.flatnonzero(labels == c)
            members = members[rng.permutation(members.size)]
            n_test = int(round(trainer.TEST_FRACTION * members.size))
            test_idx.append(members[:n_test])
            train_idx.append(members[n_test:])
        ours = stratified_split(labels, seed)
        np.testing.assert_array_equal(ours[0], np.sort(np.concatenate(train_idx)))
        np.testing.assert_array_equal(ours[1], np.sort(np.concatenate(test_idx)))


def _dataset_file(tmp_path, dset, name="data.dsr"):
    path = tmp_path / name
    write_dataset_file(dset, path)
    return path


def reference_compare(dataset_path, quantized_path, config):
    """compare as first written: one process, the baseline arm first,
    a float32 dequantized training set, and the accuracy of a whole
    Dataset throughout."""
    def evaluate(model, dset):
        return _accuracy(model, dset.values, dset.labels)

    original = read_dataset_file(dataset_path)
    stored = QdsRecords(quantized_path)
    train_idx, test_idx = stratified_split(original.labels, config.seed)
    test_set = row_subset(original, test_idx)
    baseline_acc = evaluate(train(row_subset(original, train_idx), config), test_set)
    kept = train_idx[stored.widths[train_idx] > 0]
    quant_train = Dataset(original.shape, original.num_classes,
                          stored.dequantized(kept, np.float32), stored.labels[kept])
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
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        config = TrainConfig(epochs=4, seed=5)
        report = compare(*pruned, config)
        assert len(forks) == int(fork)
        # EvalReport equality compares every float and the loss curve exactly
        assert report == reference_compare(*pruned, config)
        assert len(report.loss_curve) == 4

    @pytest.mark.parametrize("fork", [True, False], ids=["concurrent", "inline"])
    def test_a_stream_of_many_row_chunks_matches_the_reference(self, pruned, forks,
                                                               monkeypatch, fork):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 48 * 64)  # 10 row chunks
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        config = TrainConfig(epochs=2, seed=5)
        assert compare(*pruned, config) == reference_compare(*pruned, config)
        assert len(forks) == int(fork)

    def test_the_stream_gives_the_gathered_matrix_and_test_split(self, pruned,
                                                                 monkeypatch):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 48 * 64)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        descend, accuracy, fits, scored = trainer._descend, trainer._accuracy, [], []

        def recording_descend(x, mean, std, *args):
            fits.append((x, mean, std))
            return descend(x, mean, std, *args)

        def recording_accuracy(model, values, labels):
            scored.append((values, labels))
            return accuracy(model, values, labels)

        monkeypatch.setattr(trainer, "_descend", recording_descend)
        monkeypatch.setattr(trainer, "_accuracy", recording_accuracy)
        compare(*pruned, TrainConfig(epochs=1, seed=5))
        original = read_dataset_file(pruned[0])
        train_idx, test_idx = stratified_split(original.labels, 5)
        # inline, the baseline arm fits first; then the quantized arm is
        # scored on its dequantized train rows, and both arms on the test split
        expected = _standardized(original.values[train_idx].astype(np.float64))
        for ours, theirs in zip(fits[0], expected):
            assert np.array_equal(ours, theirs)
        assert len(scored) == 3
        for values, labels in scored[1:]:
            assert values.dtype == np.float32
            assert np.array_equal(values, original.values[test_idx])
            assert np.array_equal(labels, original.labels[test_idx])

    def test_the_parent_reads_only_the_test_split(self, pruned, forks, monkeypatch):
        # forked, the child reads the train rows; the parent decodes its
        # own arm from the QDS file and reads the dataset file once, for
        # the test split, after its fit. The reference and the split read
        # through take too, so they are made before it is recorded
        config = TrainConfig(epochs=1, seed=5)
        expected = reference_compare(*pruned, config)
        _, test_idx = stratified_split(read_dataset_file(pruned[0]).labels, 5)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        parent, take, read = os.getpid(), DatasetRows.take, []

        def recording(rows, indices, dtype):
            if os.getpid() == parent:
                read.append((indices.copy(), dtype))
            return take(rows, indices, dtype)

        monkeypatch.setattr(DatasetRows, "take", recording)
        assert compare(*pruned, config) == expected
        assert len(forks) == 1
        assert len(read) == 1
        assert np.array_equal(read[0][0], test_idx) and read[0][1] == np.float32

    def test_peak_memory_is_the_baseline_matrix_and_test_split(self, tmp_path,
                                                                monkeypatch):
        # inline, the arms run one after the other: the peak is the
        # baseline matrix next to the float32 test split and the QDS
        # bytes, with no float32 copy of the dataset beside them
        chunk = 1 << 14
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        n, dim = 2048, 256  # 32 row chunks
        dset = _varied(n, dim)
        dsr, qds = _dataset_file(tmp_path, dset), tmp_path / "data.qds"
        write_qds(dset, AllocationPlan.from_assignments(np.full(n, 8)), qds)
        train_idx, test_idx = stratified_split(dset.labels, 42)
        del dset
        tracemalloc.start()
        try:
            compare(dsr, qds, TrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # decoding a QDS chunk takes a few float64 chunks of temporaries;
        # the float32 dataset would add 4 * n * dim (2 MiB)
        assert peak <= (8 * train_idx.size * dim + 4 * test_idx.size * dim
                        + qds.stat().st_size + 8 * 8 * chunk)

    def test_inline_peak_is_the_baseline_matrix_and_the_qds_bytes(self, tmp_path,
                                                                   monkeypatch):
        # inline, the baseline arm frees its matrix before the quantized
        # arm builds its own, and the test split is read after both fits
        # and after the dequantized train rows are scored, so it never
        # sits beside a matrix
        chunk = 1 << 14
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        n, dim = 4096, 256  # 64 row chunks; the test split is 0.8 MiB
        dset = _varied(n, dim)
        dsr, qds = _dataset_file(tmp_path, dset), tmp_path / "data.qds"
        write_qds(dset, AllocationPlan.from_assignments(np.full(n, 8)), qds)
        train_idx, _ = stratified_split(dset.labels, 42)
        del dset
        tracemalloc.start()
        try:
            compare(dsr, qds, TrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * train_idx.size * dim + qds.stat().st_size + 8 * 8 * chunk

    def test_arms_run_concurrently_on_two_cores(self, pruned, forks):
        if len(os.sched_getaffinity(0)) < 2 or parallel.openblas_threads() is None:
            pytest.skip("needs two usable cores and a settable OpenBLAS")
        compare(*pruned, TrainConfig(epochs=1))
        assert len(forks) == 1

    def test_fits_run_on_one_blas_thread_and_restore_the_count(self, pruned,
                                                                monkeypatch):
        controls = parallel.openblas_threads()
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
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        with pytest.raises(RuntimeError, match=r"^training diverged \(non-finite loss\)$"):
            compare(*pruned, TrainConfig(epochs=2))

    def test_child_killed_by_a_signal_is_an_error(self, forks, monkeypatch):
        def killed():
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        with parallel.started(killed) as result:
            with pytest.raises(RuntimeError, match="exited with code -9"):
                result()
        assert len(forks) == 1

    def test_leaving_the_block_kills_and_reaps_a_running_child(self, forks, monkeypatch):
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        with pytest.raises(KeyError):
            with parallel.started(lambda: time.sleep(60)):
                raise KeyError("the parent's arm failed")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_child_takes_the_default_stop_signal_handlers(self, forks, monkeypatch):
        def defaults() -> bytes:
            return bytes([signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
                          and signal.getsignal(signal.SIGINT) is signal.SIG_DFL])

        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        previous = signal.signal(signal.SIGTERM, lambda *args: None)  # as cli.main sets
        try:
            with parallel.started(defaults) as result:
                assert result() == b"\x01"
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert len(forks) == 1

    def test_child_result_is_sent_bitwise(self, forks, monkeypatch):
        payload = np.array([1 / 3 + 2 ** -52, -0.0]).tobytes() + bytes(range(256))
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        with parallel.started(lambda: payload) as result:
            assert result() == payload
        assert len(forks) == 1

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
