import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    every_row,
    raw_rows,
    reference_read_dataset,
    reference_round_trip_rows,
    rows_with_ties,
)

from dsquant import parallel, quantizer, sensitivity
from dsquant.dataset import DatasetRows, SampleShape, synth_blobs, write_dataset_file
from dsquant.quantizer import dequantize_rows, quantize_rows
from dsquant.sensitivity import (
    NORM_FLOOR,
    LogisticModel,
    gradient_check,
    read_scores,
    score_dataset,
    sensitivity_score,
    write_scores,
)
from dsquant.trainer import fit_scoring_model


def random_model(num_classes=3, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return LogisticModel(rng.standard_normal((num_classes, dim)),
                         rng.standard_normal(num_classes))


class TestSensitivityScore:
    def test_identical_gradients(self):
        g = np.array([1.0, -2.0, 3.0])
        assert sensitivity_score(g, g) == 0.0

    def test_opposite_gradients(self):
        g = np.array([1.0, -2.0, 3.0])
        assert sensitivity_score(g, -g) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_gradients(self):
        assert sensitivity_score([1.0, 0.0], [0.0, 5.0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sensitivity_score([1.0], [1.0, 2.0])

    def test_zero_norm_treated_as_insensitive(self):
        assert sensitivity_score(np.zeros(3), [1.0, 2.0, 3.0]) == 0.0
        assert sensitivity_score([1.0, 2.0, 3.0], np.zeros(3)) == 0.0

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(8)
        g1, g2 = rng.standard_normal(20), rng.standard_normal(20)
        base = sensitivity_score(g1, g2)
        assert sensitivity_score(3.7 * g1, 0.002 * g2) == pytest.approx(base, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = sensitivity_score(rng.standard_normal(10), rng.standard_normal(10))
            assert 0.0 <= s <= 2.0


class TestScoreDataset:
    def test_all_zero_samples_score_zero(self, tmp_path):
        dset = raw_rows(tmp_path, np.zeros((5, 4), np.float32), np.zeros(5),
                        SampleShape(1, 1, 4), 2)
        scores = score_dataset(dset, random_model(2, 4), 4)
        assert np.all(scores == 0.0)

    def test_finer_probe_scores_lower_on_average(self):
        dset = synth_blobs(3, 16, 40, 0.5, seed=6)
        model = fit_scoring_model(every_row(dset), dset.labels, dset.num_classes, 42)
        coarse = score_dataset(dset, model, 4)
        fine = score_dataset(dset, model, 16)
        assert fine.mean() < coarse.mean()
        assert np.all(fine < coarse.mean())

    def test_deterministic(self):
        dset = synth_blobs(3, 8, 20, 0.5, seed=6)
        model = random_model(3, 8, seed=1)
        a = score_dataset(dset, model, 4)
        b = score_dataset(dset, model, 4)
        np.testing.assert_array_equal(a, b)

    def test_closed_form_matches_per_sample_gradients(self, tmp_path):
        dset = synth_blobs(3, 8, 30, 0.5, seed=6)
        model = random_model(3, 8, seed=1)
        values = every_row(dset)
        # probing at 4 bits reproduces these two exactly (scale 1.0)
        values[0] = 0.0
        values[2] = [7, -7, -5, 7, -5, 2, 4, -4]
        # so far along the class-2 weights that its residual, and with it
        # the whole gradient, is below the norm floor
        values[1] = 30.0 * model.weights[2] / np.linalg.norm(model.weights[2])
        labels = dset.labels.copy()
        labels[1], labels[2] = 2, 0
        scores = score_dataset(raw_rows(tmp_path, values, labels, dset.shape, 3), model, 4)
        reference = np.zeros(len(values))
        for i, (x, y) in enumerate(zip(values, labels.tolist())):
            probed = dequantize_rows(*quantize_rows(x[None], 4))[0]
            g, g_probed = model.gradient(x, y), model.gradient(probed, y)
            if i == 1:
                assert np.linalg.norm(g) < NORM_FLOOR
                assert not np.array_equal(g, g_probed)
            reference[i] = sensitivity_score(g, g_probed)
        assert scores[0] == scores[1] == scores[2] == 0.0
        assert np.abs(scores - reference).max() <= 1e-9
        assert reference[3:].min() > 1e-6

    def test_output_order_matches_dataset(self):
        dset = synth_blobs(2, 8, 5, 0.5, seed=6)
        scores = score_dataset(dset, random_model(2, 8), 4)
        assert scores.shape == (10,)


class TestProbe:
    """score's probe is the QDS writer's round trip, whose zeros are +0.0;
    the probe first written kept the sign of the value a zero came from."""

    @given(rows_with_ties(), st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scores_equal_those_of_the_reference_probe(self, case, num_classes, seed):
        values, bit_width, _ = case
        labels = np.random.default_rng(seed).integers(0, num_classes, len(values))
        model = random_model(num_classes, values.shape[1], seed)
        buffers = [np.empty(values.shape) for _ in range(2)]
        scores = sensitivity._chunk_scores(values, labels, model, bit_width, buffers)
        probed = buffers[1].copy()
        with pytest.MonkeyPatch.context() as patch:  # x_tilde is the reference probe
            patch.setattr(sensitivity, "quantize_rows", lambda *args: args[:2])
            patch.setattr(sensitivity, "dequantize_rows", lambda values, bits, out: np.copyto(
                out, reference_round_trip_rows(values, bits)))
            reference = sensitivity._chunk_scores(values, labels, model, bit_width, buffers)
        assert scores.tobytes() == reference.tobytes()
        # the probes differ, and only in the sign of a zero
        assert np.array_equal(probed, buffers[1])
        assert (np.signbit(probed) != np.signbit(buffers[1])).any()


@pytest.fixture(scope="module")
def chunked():
    """A dataset of three row chunks (341, 341 and 218 rows of 3072) and
    a model that leaves every sample a nonzero score."""
    return synth_blobs(3, 3072, 300, 0.5, seed=4), LogisticModel.seeded(3, 3072, 1)


class TestForkedScoring:
    def test_forked_and_inline_scores_are_equal(self, chunked, forks, monkeypatch):
        dset, model = chunked
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        inline = score_dataset(dset, model, 4)
        assert forks == []
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        forked = score_dataset(dset, model, 4)
        assert len(forks) == 1
        assert np.array_equal(forked, inline)
        assert inline.shape == (900,) and inline.min() > 0

    def test_two_cores_fork_once(self, chunked, forks):
        if len(os.sched_getaffinity(0)) < 2 or parallel.openblas_threads() is None:
            pytest.skip("needs two usable cores and a settable OpenBLAS")
        score_dataset(*chunked, 4)
        assert len(forks) == 1

    def test_one_core_or_one_chunk_scores_inline(self, chunked, forks, monkeypatch):
        dset, model = chunked
        score_dataset(synth_blobs(3, 3072, 100, 0.5, seed=4), model, 4)  # one row chunk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        score_dataset(dset, model, 4)
        assert forks == []

    def test_scoring_runs_on_one_blas_thread_and_restores_the_count(self, chunked,
                                                                    monkeypatch):
        controls = parallel.openblas_threads()
        if controls is None:
            pytest.skip("NumPy's BLAS is not a settable OpenBLAS")
        get, set_ = controls
        chunk_scores, seen = sensitivity._chunk_scores, []

        def recording(*args):
            seen.append(get())
            return chunk_scores(*args)

        monkeypatch.setattr(sensitivity, "_chunk_scores", recording)
        before = get()
        set_(3)
        try:
            score_dataset(*chunked, 4)
            assert get() == 3
        finally:
            set_(before)
        # inline every chunk records here; forked, the child's records stay there
        assert seen and set(seen) == {1}

    def test_a_chunk_holds_two_float64_arrays_and_one_float32(self, chunked, monkeypatch):
        dset, model = chunked
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        tracemalloc.start()
        try:
            for _ in dset.chunks():
                pass
            _, source_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            score_dataset(dset, model, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond what a pass over the source holds (synth_blobs generates
        # each chunk in its own buffers)
        chunk = 341 * 3072
        assert peak < source_peak + (8 + 8 + 4) * chunk + 8 * 900 + (1 << 20)

    def test_child_error_is_raised_in_the_parent(self, chunked, forks, monkeypatch):
        parent, chunk_scores = os.getpid(), sensitivity._chunk_scores

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise ValueError("the child's half failed")
            return chunk_scores(*args)

        monkeypatch.setattr(sensitivity, "_chunk_scores", fail_in_child)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        with pytest.raises(ValueError, match="^the child's half failed$"):
            score_dataset(*chunked, 4)
        assert len(forks) == 1


class TestStreamedScoring:
    """score_dataset reads a DatasetRows a row chunk at a time in each
    process, and scores it as it scores the rows the whole-body reference
    reader reads."""

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
    def test_equals_the_whole_array_scores(self, tmp_path, monkeypatch, forks, n, fork):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        rng = np.random.default_rng(n)
        path = tmp_path / "data.dsr"
        write_dataset_file(raw_rows(tmp_path, rng.standard_normal((n, 16), dtype=np.float32),
                                    rng.integers(0, 5, n), SampleShape(2, 4, 2), 5), path)
        model = random_model(5, 16, seed=n)
        streamed = score_dataset(DatasetRows(path), model, 4)
        shape, num_classes, values, labels = reference_read_dataset(path)
        whole = score_dataset(raw_rows(tmp_path, values, labels, shape, num_classes), model, 4)
        assert streamed.shape == (n,) and np.array_equal(streamed, whole)
        assert n == 0 or streamed.max() > 0
        assert len(forks) == (2 if fork and n > 64 else 0)  # two row chunks or more

    def test_holds_one_row_chunk_of_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 1 << 16)  # 21 rows of 3072
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        rng = np.random.default_rng(6)
        values = rng.standard_normal((2000, 3072), dtype=np.float32)
        path = tmp_path / "data.dsr"
        write_dataset_file(raw_rows(tmp_path, values, rng.integers(0, 10, 2000),
                                    SampleShape(32, 32, 3), 10), path)
        rows, model = DatasetRows(path), LogisticModel.seeded(10, 3072, 1)
        tracemalloc.start()
        try:
            score_dataset(rows, model, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk's read buffer and temporaries (24 bytes per element,
        # 1.5 MiB) and the scores, against the file's 23 MiB of values
        assert peak < values.nbytes // 4


class TestGradientCheck:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        model = random_model(3, 8, seed=12)
        d = rng.standard_normal(8)
        assert gradient_check(model, d, 1, step=1e-5) < 1e-4

    def test_zero_model_bias_gradient_is_uniform_minus_onehot(self):
        model = LogisticModel(np.zeros((4, 6)), np.zeros(4))
        grad = model.gradient(np.zeros(6), 2)
        bias_grad = grad[-4:]
        expected = np.full(4, 0.25)
        expected[2] -= 1.0
        np.testing.assert_allclose(bias_grad, expected, atol=1e-12)
        assert not grad[:-4].any()

    def test_step_doubling_consistent_with_second_order(self):
        rng = np.random.default_rng(13)
        model = random_model(3, 6, seed=13)
        d = rng.standard_normal(6)
        err_small = gradient_check(model, d, 0, step=1e-5)
        err_large = gradient_check(model, d, 0, step=2e-5)
        if err_small > 1e-8:  # above the roundoff floor the ratio is ~4
            assert err_large / err_small < 40
            assert err_large / err_small > 0.1

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            gradient_check(random_model(), np.zeros(8), 0, step=0.0)


class TestLogisticModel:
    def test_gradient_length_constant(self):
        model = random_model(3, 8)
        rng = np.random.default_rng(2)
        lengths = {model.gradient(rng.standard_normal(8), 0).size
                   for _ in range(5)}
        assert lengths == {model.weights.size + model.bias.size}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogisticModel(np.zeros((3, 4)), np.zeros(2))


def test_score_file_round_trip(tmp_path):
    scores = np.array([0.0, 1.25e-5, 1.999999999, 0.5])
    path = tmp_path / "scores.tsv"
    write_scores(scores, path)
    text = path.read_text()
    assert text.splitlines()[1] == "1\t1.25e-05"
    np.testing.assert_allclose(read_scores(path), scores, rtol=1e-8)


def test_score_file_rejects_bad_indices(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t0.5\n2\t0.5\n")
    with pytest.raises(ValueError, match="indices"):
        read_scores(path)
