import io
import tracemalloc

import numpy as np
import pytest
from reference import read_rows, reference_read_dataset, synth_half_noise

from dsquant import dataset, quantizer
from dsquant.dataset import (
    CifarRecords,
    Dataset,
    DatasetRows,
    RawRows,
    SampleShape,
    read_dataset_file,
    synth_blobs,
    write_dataset_file,
)


def _cifar_record(label, pixels, coarse=None):
    prefix = bytes([coarse, label]) if coarse is not None else bytes([label])
    return prefix + bytes(pixels)


def _decoded(source) -> Dataset:
    """Every row of an ingest source, read a row chunk at a time."""
    n, dim = source.labels.size, source.shape.element_count
    values = np.empty((n, dim), dtype=np.float32)
    for rows, chunk in source.chunks(quantizer.row_chunks(n, dim)):
        values[rows] = chunk
    return Dataset(source.shape, source.num_classes, values, source.labels)


def _read_cifar(data, num_classes):
    return _decoded(CifarRecords(io.BytesIO(data), num_classes))


def _read_raw(values, labels, shape, num_classes):
    return _decoded(RawRows(io.BytesIO(values), io.BytesIO(labels), shape, num_classes))


class TestCifarIngestion:
    def test_single_record_max_pixels(self):
        data = _cifar_record(7, [255] * 3072)
        dset = _read_cifar(data, 10)
        assert len(dset) == 1
        assert dset.labels[0] == 7
        assert np.all(dset.values == 1.0)

    def test_empty_stream(self):
        dset = _read_cifar(b"", 10)
        assert len(dset) == 0

    def test_pixel_endpoints_exact(self):
        data = _cifar_record(0, [0, 255] * 1536)
        dset = _read_cifar(data, 10)
        assert dset.values[0, 0] == np.float32(0.0)
        assert dset.values[0, 1] == np.float32(1.0)

    def test_two_records_against_independent_decoder(self):
        rng = np.random.default_rng(3)
        pixels = [rng.integers(0, 256, 3072).tolist() for _ in range(2)]
        data = _cifar_record(2, pixels[0]) + _cifar_record(9, pixels[1])
        dset = _read_cifar(data, 10)
        # independent byte-level decode
        for i in range(2):
            rec = data[i * 3073:(i + 1) * 3073]
            assert dset.labels[i] == rec[0]
            expected = np.array(list(rec[1:]), dtype=np.float32) / 255.0
            np.testing.assert_array_equal(dset.values[i], expected)

    def test_cifar100_coarse_label_ignored(self):
        data = _cifar_record(42, [128] * 3072, coarse=13)
        dset = _read_cifar(data, 100)
        assert dset.labels[0] == 42

    def test_truncated_stream_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            _read_cifar(b"\x00" * 3072, 10)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            _read_cifar(_cifar_record(11, [0] * 3072), 10)


class TestRawIngestion:
    def test_empty_files(self):
        dset = _read_raw(b"", b"", SampleShape(2, 2, 1), 4)
        assert len(dset) == 0

    def test_single_element_identity(self):
        values = np.array([0.5], dtype="<f4").tobytes()
        labels = np.array([0], dtype="<u4").tobytes()
        dset = _read_raw(values, labels, SampleShape(1, 1, 1), 2)
        assert dset.values[0, 0] == np.float32(0.5)
        assert dset.labels[0] == 0

    def test_round_trip_through_writer(self):
        rng = np.random.default_rng(11)
        original = Dataset(
            SampleShape(2, 2, 1), 3,
            rng.standard_normal((3, 4)).astype(np.float32),
            np.array([0, 2, 1]),
        )
        vdata = original.values.astype("<f4").tobytes()
        ldata = original.labels.astype("<u4").tobytes()
        again = _read_raw(vdata, ldata, original.shape, 3)
        np.testing.assert_array_equal(again.values, original.values)
        np.testing.assert_array_equal(again.labels, original.labels)

    def test_length_mismatch(self):
        values = np.zeros(4, dtype="<f4").tobytes()
        with pytest.raises(ValueError, match="label stream"):
            _read_raw(values, b"", SampleShape(2, 2, 1), 2)
        with pytest.raises(ValueError, match="multiple"):
            _read_raw(values[:-2], b"", SampleShape(2, 2, 1), 2)

    def test_non_finite_rejected(self):
        values = np.array([np.nan], dtype="<f4").tobytes()
        labels = np.array([0], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="finite"):
            _read_raw(values, labels, SampleShape(1, 1, 1), 2)

    def test_label_out_of_range(self):
        values = np.array([1.0], dtype="<f4").tobytes()
        labels = np.array([9], dtype="<u4").tobytes()
        with pytest.raises(ValueError, match="label"):
            _read_raw(values, labels, SampleShape(1, 1, 1), 2)


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


def reference_synth_blobs(num_classes, dim, per_class, spread, seed):
    """synth_blobs' values as first written: all float64 blocks at once."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-4.0, 4.0, size=(num_classes, dim))
    blocks = [means[c] + spread * rng.standard_normal((per_class, dim))
              for c in range(num_classes)]
    return np.clip(np.concatenate(blocks), -8.0, 8.0).astype(np.float32)


class TestSyntheticBlobsMemory:
    @pytest.mark.parametrize("args", [(3, 8, 10, 0.5, 99), (2, 4, 50, 10.0, 5),
                                      (10, 64, 37, 2.5, 1), (4, 3072, 5, 3.0, 7)])
    def test_same_dataset_file_bytes_as_the_reference(self, tmp_path, args):
        num_classes, dim, per_class, _, _ = args
        path = tmp_path / "data.dsr"
        write_dataset_file(synth_blobs(*args), path)
        labels = np.repeat(np.arange(num_classes), per_class).astype("<u4")
        body = path.read_bytes()[30:]
        assert body == reference_synth_blobs(*args).tobytes() + labels.tobytes()

    def test_peak_memory_is_the_output_plus_one_class_block(self):
        classes, dim, per_class = 8, 256, 512
        n = classes * per_class
        tracemalloc.start()
        try:
            synth_blobs(classes, dim, per_class, 1.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # float32 output, one float64 block, int64 labels, Dataset's isfinite
        # mask and 64 KiB to spare; the reference peaks at about six outputs
        assert peak <= n * dim * 4 + per_class * dim * 8 + n * 8 + n * dim + (1 << 16)


class TestDatasetFiniteCheck:
    def test_checks_a_row_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 1 << 16)  # 21 rows of 3072
        values = np.random.default_rng(0).standard_normal((2000, 3072), dtype=np.float32)
        labels = np.zeros(2000, dtype=np.int64)
        tracemalloc.start()
        try:
            Dataset(SampleShape(32, 32, 3), 10, values, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a whole-array isfinite mask alone is one byte per element
        assert peak < values.size

    @pytest.mark.parametrize("row", [0, 1000, 1999])
    def test_a_non_finite_value_in_any_chunk_is_rejected(self, monkeypatch, row):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        values = np.ones((2000, 16), dtype=np.float32)
        values[row, 15] = np.inf
        with pytest.raises(ValueError, match="^sample values must be finite$"):
            Dataset(SampleShape(1, 1, 16), 2, values, np.zeros(2000, dtype=np.int64))


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


def test_dataset_file_is_written_from_the_arrays(tmp_path):
    rng = np.random.default_rng(5)
    dset = Dataset(SampleShape(32, 32, 3), 10,
                   rng.standard_normal((2000, 3072), dtype=np.float32),
                   rng.integers(0, 10, 2000))
    path = tmp_path / "data.bin"
    tracemalloc.start()
    try:
        write_dataset_file(dset, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no bytes copy of the 24 MiB of values, only the 8 KiB of u32 labels
    assert peak < dset.values.nbytes // 8
    body = path.read_bytes()[30:]
    assert body == (dset.values.astype("<f4").tobytes()
                    + dset.labels.astype("<u4").tobytes())


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(SampleShape(1, 1, 2), 2, np.zeros((2, 3), np.float32), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(SampleShape(1, 1, 2), 2, np.zeros((2, 2), np.float32),
                np.array([0, 5]))
    with pytest.raises(ValueError):
        SampleShape(0, 1, 1)


READERS = [read_dataset_file, read_rows]


def test_dataset_file_rejects_trailing_and_missing_bytes(tmp_path):
    path = tmp_path / "data.bin"
    write_dataset_file(synth_blobs(2, 4, 3, 0.5, seed=1), path)
    data = path.read_bytes()
    for reader in READERS:
        path.write_bytes(data + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            reader(path)
        path.write_bytes(data[:-1])
        with pytest.raises(ValueError, match="truncated"):
            reader(path)


class TestDatasetRows:
    """The row reader, and read_dataset_file built on it, must read what
    the whole-body reference reads, and refuse a hostile file with a
    one-line message."""

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
    def test_reads_what_was_written(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        rng = np.random.default_rng(n)
        dset = Dataset(SampleShape(2, 4, 2), 5,
                       rng.standard_normal((n, 16), dtype=np.float32), rng.integers(0, 5, n))
        path = tmp_path / "data.bin"
        write_dataset_file(dset, path)
        rows = DatasetRows(path)
        read = [(chunk, values.copy()) for chunk, values in rows.chunks()]
        assert [chunk for chunk, _ in read] == quantizer.row_chunks(n, 16)
        values = np.concatenate([np.empty((0, 16), np.float32), *(v for _, v in read)])
        assert np.array_equal(values, dset.values)
        assert np.array_equal(rows.labels, dset.labels)
        assert (rows.shape, rows.num_classes) == (dset.shape, dset.num_classes)
        whole, reference = read_dataset_file(path), reference_read_dataset(path)
        assert np.array_equal(whole.values, reference.values)
        assert np.array_equal(whole.labels, reference.labels)
        assert (whole.shape, whole.num_classes) == (reference.shape, reference.num_classes)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
    def test_reads_from_every_starting_chunk(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        rng = np.random.default_rng(n)
        path = tmp_path / "data.bin"
        write_dataset_file(Dataset(SampleShape(2, 4, 2), 5,
                                   rng.standard_normal((n, 16), dtype=np.float32),
                                   rng.integers(0, 5, n)), path)
        whole, rows = reference_read_dataset(path).values, DatasetRows(path)
        chunks = quantizer.row_chunks(n, 16)
        for first in range(len(chunks) + 1):  # the last start reads nothing
            read = [(chunk, values.copy()) for chunk, values in rows.chunks(chunks[first:])]
            assert [chunk for chunk, _ in read] == chunks[first:]
            values = np.concatenate([np.empty((0, 16), np.float32), *(v for _, v in read)])
            assert np.array_equal(values, whole[first * 64:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
    def test_take_gathers_ascending_rows(self, tmp_path, monkeypatch, n, dtype):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        rng = np.random.default_rng(n)
        path = tmp_path / "data.bin"
        write_dataset_file(Dataset(SampleShape(2, 4, 2), 5,
                                   rng.standard_normal((n, 16), dtype=np.float32),
                                   rng.integers(0, 5, n)), path)
        whole, rows = reference_read_dataset(path).values, DatasetRows(path)
        ends = sorted({row for chunk in quantizer.row_chunks(n, 16)
                       for row in (chunk.start, min(chunk.stop, n) - 1)})
        for indices in (np.arange(0), np.arange(n), np.arange(0, n, 2),  # none, all, every other
                        np.array(ends, dtype=np.int64)):  # each chunk's first and last row
            taken = rows.take(indices, dtype)
            assert taken.dtype == dtype and taken.shape == (indices.size, 16)
            assert np.array_equal(taken, whole[indices])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [0, 15, 29], ids=["first-chunk", "middle-chunk", "last-chunk"])
    def test_take_rejects_a_non_finite_row_it_does_not_select(self, tmp_path, monkeypatch,
                                                              row, dtype):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 8 * 7)  # 7 rows of 8
        path = tmp_path / "data.bin"
        write_dataset_file(synth_blobs(3, 8, 10, 0.5, seed=1), path)
        data = bytearray(path.read_bytes())
        at = 30 + (row * 8 + 3) * 4  # value 3 of the row, after the 30-byte header
        data[at:at + 4] = np.float32(np.inf).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="^sample values must be finite$"):
            DatasetRows(path).take(np.delete(np.arange(30), row), dtype)

    @pytest.mark.parametrize("reader", READERS)
    def test_labels_truncated_after_the_size_check_are_one_line(self, tmp_path,
                                                                monkeypatch, reader):
        path = tmp_path / "data.bin"
        # 1,000 rows of 8: larger than the 8 KiB read buffer, so the label
        # read goes to the shrunken file rather than to buffered bytes
        write_dataset_file(synth_blobs(2, 8, 500, 0.5, seed=1), path)
        read_header = dataset._read_dataset_header

        def shrinking(fh, where):
            header = read_header(fh, where)
            with open(path, "r+b") as out:  # lose the last two labels
                out.truncate(path.stat().st_size - 8)
            return header

        monkeypatch.setattr(dataset, "_read_dataset_header", shrinking)
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"{path}: truncated dataset body"

    def test_a_body_truncated_after_opening_is_one_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 8 * 7)  # 7 rows of 8
        path = tmp_path / "data.bin"
        write_dataset_file(synth_blobs(3, 8, 10, 0.5, seed=1), path)
        rows = DatasetRows(path)
        chunks = quantizer.row_chunks(30, 8)
        with open(path, "r+b") as fh:  # cut off the labels and the last value
            fh.truncate(path.stat().st_size - 30 * 4 - 4)
        with pytest.raises(ValueError, match="truncated dataset body") as info:
            list(rows.chunks(chunks[-2:]))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("fault, message", [
        ("nan-in-last-row", "sample values must be finite"),
        ("label-out-of-range", "label out of range"),
        ("no-classes", "num_classes must be positive"),
    ])
    def test_rejects_what_read_dataset_file_rejects(self, tmp_path, monkeypatch,
                                                    fault, message):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 8 * 7)  # 7 rows of 8
        path = tmp_path / "data.bin"
        write_dataset_file(synth_blobs(3, 8, 10, 0.5, seed=1), path)
        data = bytearray(path.read_bytes())
        labels_at = len(data) - 30 * 4
        if fault == "nan-in-last-row":
            data[labels_at - 4:labels_at] = np.float32(np.nan).tobytes()
        elif fault == "label-out-of-range":
            data[-4:] = (3).to_bytes(4, "little")
        else:
            data[26:30] = bytes(4)
        path.write_bytes(bytes(data))
        for reader in READERS:
            with pytest.raises(ValueError, match=message) as info:
                reader(path)
            assert "\n" not in str(info.value)

    def test_holds_one_row_chunk_of_values(self, tmp_path):
        rng = np.random.default_rng(6)
        dset = Dataset(SampleShape(32, 32, 3), 10,
                       rng.standard_normal((2000, 3072), dtype=np.float32),
                       rng.integers(0, 10, 2000))
        path = tmp_path / "data.bin"
        write_dataset_file(dset, path)
        tracemalloc.start()
        try:
            read_rows(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4 MiB float32 chunk and its 1 MiB finite mask, against the
        # file's 23 MiB of values
        assert peak < dset.values.nbytes // 4
