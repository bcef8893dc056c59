import numpy as np
import pytest

from dsquant.dataset import Dataset, SampleShape, synth_blobs
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
    def test_all_zero_samples_score_zero(self):
        dset = Dataset(SampleShape(1, 1, 4), 2,
                       np.zeros((5, 4), np.float32), np.zeros(5, np.int64))
        scores = score_dataset(dset, random_model(2, 4), 4)
        assert np.all(scores == 0.0)

    def test_finer_probe_scores_lower_on_average(self):
        dset = synth_blobs(3, 16, 40, 0.5, seed=6)
        model = fit_scoring_model(dset, 42)
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

    def test_closed_form_matches_per_sample_gradients(self):
        dset = synth_blobs(3, 8, 30, 0.5, seed=6)
        model = random_model(3, 8, seed=1)
        values = dset.values.copy()
        # probing at 4 bits reproduces these two exactly (scale 1.0)
        values[0] = 0.0
        values[2] = [7, -7, -5, 7, -5, 2, 4, -4]
        # so far along the class-2 weights that its residual, and with it
        # the whole gradient, is below the norm floor
        values[1] = 30.0 * model.weights[2] / np.linalg.norm(model.weights[2])
        labels = dset.labels.copy()
        labels[1], labels[2] = 2, 0
        dset = Dataset(dset.shape, 3, values, labels)
        scores = score_dataset(dset, model, 4)
        reference = np.zeros(len(dset))
        for i in range(len(dset)):
            x, y = dset.values[i], int(dset.labels[i])
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
        assert scores.shape == (len(dset),)


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
