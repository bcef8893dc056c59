import numpy as np
import pytest

from dsquant.dataset import (
    Dataset,
    SampleShape,
    ingest_cifar_binary,
    ingest_raw,
    read_dataset_file,
    synth_blobs,
    synth_half_noise,
    write_dataset_file,
    write_raw,
)


def _cifar_record(label, pixels, coarse=None):
    prefix = bytes([coarse, label]) if coarse is not None else bytes([label])
    return prefix + bytes(pixels)


class TestCifarIngestion:
    def test_single_record_max_pixels(self):
        data = _cifar_record(7, [255] * 3072)
        dset = ingest_cifar_binary(data, 10)
        assert len(dset) == 1
        assert dset.labels[0] == 7
        assert np.all(dset.values == 1.0)

    def test_empty_stream(self):
        dset = ingest_cifar_binary(b"", 10)
        assert len(dset) == 0

    def test_pixel_endpoints_exact(self):
        data = _cifar_record(0, [0, 255] * 1536)
        dset = ingest_cifar_binary(data, 10)
        assert dset.values[0, 0] == np.float32(0.0)
        assert dset.values[0, 1] == np.float32(1.0)

    def test_two_records_against_independent_decoder(self):
        rng = np.random.default_rng(3)
        pixels = [rng.integers(0, 256, 3072).tolist() for _ in range(2)]
        data = _cifar_record(2, pixels[0]) + _cifar_record(9, pixels[1])
        dset = ingest_cifar_binary(data, 10)
        # independent byte-level decode
        for i in range(2):
            rec = data[i * 3073:(i + 1) * 3073]
            assert dset.labels[i] == rec[0]
            expected = np.array(list(rec[1:]), dtype=np.float32) / 255.0
            np.testing.assert_array_equal(dset.values[i], expected)

    def test_cifar100_coarse_label_ignored(self):
        data = _cifar_record(42, [128] * 3072, coarse=13)
        dset = ingest_cifar_binary(data, 100)
        assert dset.labels[0] == 42

    def test_truncated_stream_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            ingest_cifar_binary(b"\x00" * 3072, 10)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            ingest_cifar_binary(_cifar_record(11, [0] * 3072), 10)


class TestRawIngestion:
    def test_empty_files(self):
        dset = ingest_raw(b"", b"", SampleShape(2, 2, 1), 4)
        assert len(dset) == 0

    def test_single_element_identity(self):
        values = np.array([0.5], dtype="<f4").tobytes()
        labels = np.array([0], dtype="<u4").tobytes()
        dset = ingest_raw(values, labels, SampleShape(1, 1, 1), 2)
        assert dset.values[0, 0] == np.float32(0.5)
        assert dset.labels[0] == 0

    def test_round_trip_through_writer(self):
        rng = np.random.default_rng(11)
        original = Dataset(
            SampleShape(2, 2, 1), 3,
            rng.standard_normal((3, 4)).astype(np.float32),
            np.array([0, 2, 1]),
        )
        vdata, ldata = write_raw(original)
        again = ingest_raw(vdata, ldata, original.shape, 3)
        np.testing.assert_array_equal(again.values, original.values)
        np.testing.assert_array_equal(again.labels, original.labels)

    def test_length_mismatch(self):
        values = np.zeros(4, dtype="<f4").tobytes()
        with pytest.raises(ValueError, match="label stream"):
            ingest_raw(values, b"", SampleShape(2, 2, 1), 2)
        with pytest.raises(ValueError, match="multiple"):
            ingest_raw(values[:-2], b"", SampleShape(2, 2, 1), 2)

    def test_non_finite_rejected(self):
        values = np.array([np.nan], dtype="<f4").tobytes()
        labels = np.array([0], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="finite"):
            ingest_raw(values, labels, SampleShape(1, 1, 1), 2)

    def test_label_out_of_range(self):
        values = np.array([1.0], dtype="<f4").tobytes()
        labels = np.array([9], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="label"):
            ingest_raw(values, labels, SampleShape(1, 1, 1), 2)


class TestSyntheticBlobs:
    def test_deterministic_in_seed(self):
        a = synth_blobs(3, 8, 10, 0.5, seed=99)
        b = synth_blobs(3, 8, 10, 0.5, seed=99)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_counts_per_class(self):
        dset = synth_blobs(3, 4, 100, 0.5, seed=1)
        assert len(dset) == 300
        assert all(np.sum(dset.labels == c) == 100 for c in range(3))

    def test_values_clipped(self):
        dset = synth_blobs(2, 4, 50, 10.0, seed=5)
        assert dset.values.min() >= -8.0 and dset.values.max() <= 8.0

    def test_nearest_mean_separates_tight_blobs(self):
        dset = synth_blobs(3, 16, 100, 0.01, seed=2)
        means = np.stack([dset.values[dset.labels == c].mean(axis=0)
                          for c in range(3)])
        dists = ((dset.values[:, None, :] - means[None]) ** 2).sum(axis=2)
        predictions = dists.argmin(axis=1)
        assert np.mean(predictions == dset.labels) >= 0.99

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            synth_blobs(1, 4, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(2, 4, 10, 0.0, seed=0)


class TestHalfNoise:
    def test_composition(self):
        dset = synth_half_noise(3, 8, 50, 0.5, seed=4)
        assert len(dset) == 300
        noise = dset.values[150:]
        assert set(np.unique(noise)) <= {-4.0, 0.0, 4.0}

    def test_deterministic(self):
        a = synth_half_noise(3, 8, 50, 0.5, seed=4)
        b = synth_half_noise(3, 8, 50, 0.5, seed=4)
        np.testing.assert_array_equal(a.values, b.values)


def test_dataset_file_round_trip(tmp_path):
    dset = synth_blobs(3, 8, 10, 0.5, seed=42)
    path = tmp_path / "data.bin"
    write_dataset_file(dset, path)
    again = read_dataset_file(path)
    np.testing.assert_array_equal(again.values, dset.values)
    np.testing.assert_array_equal(again.labels, dset.labels)
    assert again.shape == dset.shape
    assert again.num_classes == dset.num_classes


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(SampleShape(1, 1, 2), 2, np.zeros((2, 3), np.float32), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(SampleShape(1, 1, 2), 2, np.zeros((2, 2), np.float32),
                np.array([0, 5]))
    with pytest.raises(ValueError):
        SampleShape(0, 1, 1)


def test_dataset_file_rejects_trailing_and_missing_bytes(tmp_path):
    path = tmp_path / "data.bin"
    write_dataset_file(synth_blobs(2, 4, 3, 0.5, seed=1), path)
    data = path.read_bytes()
    path.write_bytes(data + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        read_dataset_file(path)
    path.write_bytes(data[:-1])
    with pytest.raises(ValueError, match="truncated"):
        read_dataset_file(path)
