import contextlib
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from reference import (
    every_row,
    raw_rows,
    read_rows,
    reference_dequantized,
    reference_ingest_cifar,
    reference_read_dataset,
    synth_half_noise,
    take_rows,
)

from dsquant import dataset, parallel, quantizer
from dsquant.allocator import AllocationPlan
from dsquant.dataset import (
    CifarRecords,
    DatasetRows,
    RawRows,
    SampleShape,
    synth_blobs,
    write_dataset_file,
)
from dsquant.qds import QdsRecords, write_qds
from dsquant.sensitivity import LogisticModel, score_dataset


def _cifar_record(label, pixels, coarse=None):
    prefix = bytes([coarse, label]) if coarse is not None else bytes([label])
    return prefix + bytes(pixels)


def _decoded(source):
    """(values, labels) of every row of an ingest source, read a row chunk
    at a time."""
    n, dim = source.labels.size, source.shape.element_count
    values = np.empty((n, dim), dtype=np.float32)
    for rows, chunk in source.chunks(quantizer.row_chunks(n, dim)):
        values[rows] = chunk
    return values, source.labels


@contextlib.contextmanager
def _files(*contents):
    """A temporary directory holding each of contents in a file; yields
    their paths."""
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root, str(i)) for i in range(len(contents))]
        for path, data in zip(paths, contents):
            path.write_bytes(data)
        yield paths


def _read_cifar(data, num_classes):
    with _files(data) as (path,):
        return _decoded(CifarRecords(path, num_classes))


def _read_raw(values, labels, shape, num_classes):
    with _files(values, labels) as paths:
        return _decoded(RawRows(*paths, shape, num_classes))


class TestCifarIngestion:
    def test_single_record_max_pixels(self):
        data = _cifar_record(7, [255] * 3072)
        values, labels = _read_cifar(data, 10)
        assert len(labels) == 1
        assert labels[0] == 7
        assert np.all(values == 1.0)

    def test_empty_stream(self):
        values, labels = _read_cifar(b"", 10)
        assert len(labels) == 0 and values.shape == (0, 3072)

    def test_pixel_endpoints_exact(self):
        data = _cifar_record(0, [0, 255] * 1536)
        values, _ = _read_cifar(data, 10)
        assert values[0, 0] == np.float32(0.0)
        assert values[0, 1] == np.float32(1.0)

    def test_two_records_against_independent_decoder(self):
        rng = np.random.default_rng(3)
        pixels = [rng.integers(0, 256, 3072).tolist() for _ in range(2)]
        data = _cifar_record(2, pixels[0]) + _cifar_record(9, pixels[1])
        values, labels = _read_cifar(data, 10)
        # independent byte-level decode
        for i in range(2):
            rec = data[i * 3073:(i + 1) * 3073]
            assert labels[i] == rec[0]
            expected = np.array(list(rec[1:]), dtype=np.float32) / 255.0
            np.testing.assert_array_equal(values[i], expected)

    def test_cifar100_coarse_label_ignored(self):
        data = _cifar_record(42, [128] * 3072, coarse=13)
        _, labels = _read_cifar(data, 100)
        assert labels[0] == 42

    def test_truncated_stream_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            _read_cifar(b"\x00" * 3072, 10)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            _read_cifar(_cifar_record(11, [0] * 3072), 10)

    def test_one_class_is_refused(self):
        with pytest.raises(ValueError, match="^num_classes must be at least 2$"):
            _read_cifar(_cifar_record(0, [0] * 3072), 1)


class TestRawIngestion:
    def test_empty_files(self):
        values, labels = _read_raw(b"", b"", SampleShape(2, 2, 1), 4)
        assert len(labels) == 0 and values.shape == (0, 4)

    def test_single_element_identity(self):
        values = np.array([0.5], dtype="<f4").tobytes()
        labels = np.array([0], dtype="<u4").tobytes()
        values, labels = _read_raw(values, labels, SampleShape(1, 1, 1), 2)
        assert values[0, 0] == np.float32(0.5)
        assert labels[0] == 0

    def test_round_trip_through_writer(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((3, 4)).astype(np.float32)
        labels = np.array([0, 2, 1])
        again = _read_raw(values.astype("<f4").tobytes(), labels.astype("<u4").tobytes(),
                          SampleShape(2, 2, 1), 3)
        np.testing.assert_array_equal(again[0], values)
        np.testing.assert_array_equal(again[1], labels)

    def test_length_mismatch(self):
        values = np.zeros(4, dtype="<f4").tobytes()
        with pytest.raises(ValueError, match="label stream"):
            _read_raw(values, b"", SampleShape(2, 2, 1), 2)
        with pytest.raises(ValueError, match="multiple"):
            _read_raw(values[:-2], b"", SampleShape(2, 2, 1), 2)

    def test_a_label_file_that_shrank_while_read_is_named(self, monkeypatch):
        with _files(bytes(4 * 4), bytes(4 * 4)) as (values, labels):
            sized = dataset._file_size

            def size_then_shrink(path):
                size = sized(path)
                if Path(path) == labels:
                    os.truncate(path, size - 1)
                return size

            monkeypatch.setattr(dataset, "_file_size", size_then_shrink)
            message = f"{labels}: truncated label stream: the file shrank while read"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RawRows(values, labels, SampleShape(1, 1, 1), 2)

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
        np.testing.assert_array_equal(every_row(a), every_row(b))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_counts_per_class(self):
        dset = synth_blobs(3, 4, 100, 0.5, seed=1)
        assert dset.labels.size == 300
        assert all(np.sum(dset.labels == c) == 100 for c in range(3))

    def test_values_clipped(self):
        values = every_row(synth_blobs(2, 4, 50, 10.0, seed=5))
        assert values.min() >= -8.0 and values.max() <= 8.0

    def test_nearest_mean_separates_tight_blobs(self):
        dset = synth_blobs(3, 16, 100, 0.01, seed=2)
        values = every_row(dset)
        means = np.stack([values[dset.labels == c].mean(axis=0)
                          for c in range(3)])
        dists = ((values[:, None, :] - means[None]) ** 2).sum(axis=2)
        predictions = dists.argmin(axis=1)
        assert np.mean(predictions == dset.labels) >= 0.99

    # 300 rows in 5 chunks with a short last one, one whole chunk, a last
    # chunk of one row, and 7 chunks of 3072-wide rows; each crosses
    # class boundaries inside a chunk
    @pytest.mark.parametrize("args, chunk_rows", [
        ((3, 16, 100, 0.5, 1), 64), ((2, 16, 32, 1.0, 2), 64), ((5, 16, 13, 2.0, 3), 64),
        ((4, 3072, 5, 3.0, 7), 3),
    ], ids=["300x16", "64x16", "65x16", "20x3072"])
    def test_reads_from_every_starting_chunk(self, monkeypatch, args, chunk_rows):
        dim = args[1]
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", chunk_rows * dim)
        whole, source = reference_synth_blobs(*args), synth_blobs(*args)
        chunks = quantizer.row_chunks(len(whole), dim)
        for first in range(len(chunks) + 1):  # the last start reads nothing
            read = [(chunk, values.copy()) for chunk, values in source.chunks(chunks[first:])]
            assert [chunk for chunk, _ in read] == chunks[first:]
            values = np.concatenate([np.empty((0, dim), np.float32), *(v for _, v in read)])
            assert np.array_equal(values, whole[first * chunk_rows:])

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

    def test_peak_memory_is_one_row_chunk(self, monkeypatch):
        chunk = 1 << 16  # 256 rows of 256
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", chunk)
        classes, dim, per_class = 8, 256, 512
        n = classes * per_class
        np.random.default_rng(0)  # NumPy imports np.random on first use, not here
        tracemalloc.start()
        try:
            for _ in synth_blobs(classes, dim, per_class, 1.0, seed=0).chunks():
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk's float64 draws, float32 values and isfinite mask, the
        # class means, the int64 labels and 64 KiB to spare, against the
        # 4 MiB of float32 values in all
        assert peak <= chunk * (8 + 4 + 1) + classes * dim * 8 + n * 8 + (1 << 16)


class TestDatasetFiniteCheck:
    @pytest.mark.parametrize("row", [0, 1000, 1999])
    def test_a_non_finite_value_in_any_chunk_is_rejected(self, tmp_path, monkeypatch, row):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        values = np.ones((2000, 16), dtype=np.float32)
        values[row, 15] = np.inf
        source = raw_rows(tmp_path, values, np.zeros(2000), SampleShape(1, 1, 16), 2)
        values_path = re.escape(str(next(tmp_path.glob("*/v.f32le"))))
        with pytest.raises(ValueError,
                           match=f"^{values_path}: record {row}: sample values must be finite$"):
            list(source.chunks())


class TestHalfNoise:
    def test_composition(self):
        values, labels = synth_half_noise(3, 8, 50, 0.5, seed=4)
        assert len(values) == len(labels) == 300
        noise = values[150:]
        assert set(np.unique(noise)) <= {-4.0, 0.0, 4.0}

    def test_deterministic(self):
        a, _ = synth_half_noise(3, 8, 50, 0.5, seed=4)
        b, _ = synth_half_noise(3, 8, 50, 0.5, seed=4)
        np.testing.assert_array_equal(a, b)


def test_dataset_file_round_trip(tmp_path):
    dset = synth_blobs(3, 8, 10, 0.5, seed=42)
    path = tmp_path / "data.bin"
    write_dataset_file(dset, path)
    again = DatasetRows(path)
    np.testing.assert_array_equal(take_rows(path), every_row(dset))
    np.testing.assert_array_equal(again.labels, dset.labels)
    assert again.shape == dset.shape
    assert again.num_classes == dset.num_classes


def test_dataset_file_is_written_from_the_arrays(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((2000, 3072), dtype=np.float32)
    labels = rng.integers(0, 10, 2000)
    source = raw_rows(tmp_path, values, labels, SampleShape(32, 32, 3), 10)
    path = tmp_path / "data.bin"
    tracemalloc.start()
    try:
        for _ in source.chunks():
            pass
        _, read_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_dataset_file(source, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond what a pass over the source holds (one 4 MiB chunk and its
    # isfinite mask), no copy of the values, only the 8 KiB of u32 labels
    assert peak < read_peak + labels.size * 4 + (1 << 16)
    body = path.read_bytes()[30:]
    assert body == values.astype("<f4").tobytes() + labels.astype("<u4").tobytes()


def test_dataset_validation():
    with pytest.raises(ValueError):
        SampleShape(0, 1, 1)


READERS = [take_rows, read_rows]


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


def _source(root, kind, n):
    """An n-row "cifar", "raw", "dsr" or "qds" file source written under
    root, or a "synth" one: (the row source, its float32 values, its
    labels). The QDS file stores n of 2n records, every other one
    dropped and the rest at widths 2, 5, 8 and 16 in turn."""
    rng = np.random.default_rng(n)
    if kind == "qds":
        values, labels = rng.standard_normal((2 * n, 16), dtype=np.float32), rng.integers(0, 5, 2 * n)
        plan = AllocationPlan.from_assignments(np.tile([0, 2, 0, 5, 0, 8, 0, 16], n)[:2 * n])
        write_qds(raw_rows(root, values, labels, SampleShape(2, 4, 2), 5), plan, root / "d.qds")
        return QdsRecords(root / "d.qds"), *reference_dequantized(root / "d.qds")[1:]
    if kind == "cifar":
        records = rng.integers(0, 256, (n, 1 + 3072), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, n)
        (root / "batch.bin").write_bytes(records.tobytes())
        return (CifarRecords(root / "batch.bin", 10),
                *reference_ingest_cifar(records.tobytes(), 10))
    if kind == "synth":
        args = (5, 16, n // 5, 0.5, n)
        return synth_blobs(*args), reference_synth_blobs(*args), np.arange(n) // (n // 5)
    values = rng.standard_normal((n, 16), dtype=np.float32)
    labels = rng.integers(0, 5, n)
    source = raw_rows(root, values, labels, SampleShape(2, 4, 2), 5)
    if kind == "dsr":
        write_dataset_file(source, root / "data.dsr")
        source = DatasetRows(root / "data.dsr")
    return source, values, labels


class TestFileRowSources:
    """Each chunks() call of a row source starts afresh: a file source
    opens the file itself and synth_blobs replays its seeded stream, so
    two readers of one source, such as two passes at once or the two
    processes of parallel.halves, never share a file offset or a random
    stream. Its labels are complete when it is made, and no pass changes
    them."""

    @pytest.mark.parametrize("kind", ["cifar", "raw", "dsr", "qds", "synth"])
    def test_two_interleaved_passes_each_read_every_row(self, tmp_path, kind):
        source, values, labels = _source(tmp_path, kind, 50)
        slices = [slice(start, start + 8) for start in range(0, 50, 8)]
        for (rows, first), (again, second) in zip(source.chunks(slices),
                                                  source.chunks(slices)):
            assert rows == again
            assert np.array_equal(first, values[rows])
            assert np.array_equal(second, values[rows])
        assert np.array_equal(source.labels, labels)

    @pytest.mark.parametrize("kind", ["cifar", "raw", "synth"])
    def test_forked_stages_read_the_rows_of_the_dataset(self, tmp_path, monkeypatch, forks,
                                                        kind):
        source, values, labels = _source(tmp_path, kind, 300)
        dim = source.shape.element_count
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 16 * dim)  # 19 chunks of 16 rows
        model = LogisticModel.seeded(source.num_classes, dim, 1)
        plan = AllocationPlan.from_assignments(np.random.default_rng(2).choice([0, 2, 8], 300))
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        inline = score_dataset(source, model, 4)
        write_qds(source, plan, tmp_path / "inline.qds")
        # the inline calls see the rows of the dataset
        expected = raw_rows(tmp_path, values, labels, source.shape, source.num_classes)
        assert np.array_equal(score_dataset(expected, model, 4), inline)
        assert forks == []
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        scores = score_dataset(source, model, 4)
        assert scores.max() > 0 and np.array_equal(scores, inline)
        write_qds(source, plan, tmp_path / "forked.qds")
        assert (tmp_path / "forked.qds").read_bytes() == (tmp_path / "inline.qds").read_bytes()
        assert len(forks) == 2

    @pytest.mark.parametrize("kind", ["cifar", "raw", "dsr", "synth"])
    def test_forked_stages_keep_every_label(self, tmp_path, monkeypatch, forks, kind):
        source, _, labels = _source(tmp_path, kind, 100)
        dim = source.shape.element_count
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 16 * dim)  # 7 chunks of 16 rows
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        score_dataset(source, LogisticModel.seeded(source.num_classes, dim, 1), 4)
        assert np.array_equal(source.labels, labels)
        source, _, _ = _source(tmp_path, kind, 100)
        write_qds(source, AllocationPlan.from_assignments(np.full(100, 8)), tmp_path / "d.qds")
        assert np.array_equal(source.labels, labels)
        assert len(forks) == 2

    @pytest.mark.parametrize("kind", ["cifar", "raw", "dsr", "qds", "synth"])
    def test_take_gathers_the_rows_of_every_source(self, tmp_path, monkeypatch, kind):
        source, values, _ = _source(tmp_path, kind, 50)
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 8 * source.shape.element_count)
        for indices in (np.arange(50), np.arange(3, 50, 7), np.arange(0)):
            assert np.array_equal(source.take(indices, np.float64), values[indices])

    def test_a_bad_cifar_label_is_refused_at_open(self, tmp_path):
        records = np.zeros((5, 1 + 3072), dtype=np.uint8)
        records[3, 0] = 10
        (tmp_path / "batch.bin").write_bytes(records.tobytes())
        message = f"{tmp_path / 'batch.bin'}: record 3: label 10 out of range for 10 classes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CifarRecords(tmp_path / "batch.bin", 10)

    def test_a_bad_raw_label_names_the_label_file(self, tmp_path):
        np.zeros((4, 2), "<f4").tofile(tmp_path / "v.f32le")
        np.array([0, 2, 3, 9], "<u4").tofile(tmp_path / "l.u32le")
        message = f"{tmp_path / 'l.u32le'}: record 2: label 3 out of range for 3 classes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RawRows(tmp_path / "v.f32le", tmp_path / "l.u32le", SampleShape(1, 1, 2), 3)


class TestDatasetRows:
    """The row reader, and the gather of every row through take() that
    score's fit makes, must read what the whole-body reference reads, and
    refuse a hostile file with a one-line message."""

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
    def test_reads_what_was_written(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        source, written, labels = _source(tmp_path, "raw", n)
        path = tmp_path / "data.bin"
        write_dataset_file(source, path)
        rows = DatasetRows(path)
        read = [(chunk, values.copy()) for chunk, values in rows.chunks()]
        assert [chunk for chunk, _ in read] == quantizer.row_chunks(n, 16)
        values = np.concatenate([np.empty((0, 16), np.float32), *(v for _, v in read)])
        assert np.array_equal(values, written)
        assert np.array_equal(rows.labels, labels)
        assert (rows.shape, rows.num_classes) == (SampleShape(2, 4, 2), 5)
        shape, num_classes, reference, reference_labels = reference_read_dataset(path)
        assert np.array_equal(take_rows(path), reference)
        assert np.array_equal(rows.labels, reference_labels)
        assert (rows.shape, rows.num_classes) == (shape, num_classes)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
    def test_reads_from_every_starting_chunk(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        path = tmp_path / "data.bin"
        write_dataset_file(_source(tmp_path, "raw", n)[0], path)
        whole, rows = reference_read_dataset(path)[2], DatasetRows(path)
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
        path = tmp_path / "data.bin"
        write_dataset_file(_source(tmp_path, "raw", n)[0], path)
        whole, rows = reference_read_dataset(path)[2], DatasetRows(path)
        ends = sorted({row for chunk in quantizer.row_chunks(n, 16)
                       for row in (chunk.start, min(chunk.stop, n) - 1)})
        for indices in (np.arange(0), np.arange(n), np.arange(0, n, 2),  # none, all, every other
                        np.array(ends, dtype=np.int64)):  # each chunk's first and last row
            taken = rows.take(indices, dtype)
            assert taken.dtype == dtype and taken.shape == (indices.size, 16)
            assert np.array_equal(taken, whole[indices])

    @pytest.mark.parametrize("indices", [[7, 2], [-1, 2], [2, 2], [28, 30], [30]],
                             ids=["descending", "negative", "repeated", "past-the-end",
                                  "only-past-the-end"])
    def test_take_refuses_indices_not_strictly_ascending_in_range(self, tmp_path,
                                                                   monkeypatch, indices):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 4 * 8)  # 4 rows of 8
        path = tmp_path / "data.bin"
        write_dataset_file(synth_blobs(3, 8, 10, 0.5, seed=1), path)
        with pytest.raises(ValueError,
                           match=r"^row indices must be strictly ascending in \[0, 30\)$"):
            DatasetRows(path).take(np.array(indices), np.float32)

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
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: record {row}: "
                                             "sample values must be finite$"):
            DatasetRows(path).take(np.delete(np.arange(30), row), dtype)

    @pytest.mark.parametrize("reader", READERS)
    def test_labels_truncated_after_the_size_check_are_one_line(self, tmp_path,
                                                                monkeypatch, reader):
        path = tmp_path / "data.bin"
        # the labels are read after the header check, so from the
        # shrunken file
        write_dataset_file(synth_blobs(2, 8, 500, 0.5, seed=1), path)
        read_header = dataset._read_dataset_header

        def shrinking(where):
            header = read_header(where)
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
        ("nan-in-last-row", "record 29: sample values must be finite"),
        ("label-out-of-range", "record 29: label 3 out of range for 3 classes"),
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
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$") as info:
                reader(path)
            assert "\n" not in str(info.value)

    def test_holds_one_row_chunk_of_values(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((2000, 3072), dtype=np.float32)
        path = tmp_path / "data.bin"
        write_dataset_file(raw_rows(tmp_path, values, rng.integers(0, 10, 2000),
                                    SampleShape(32, 32, 3), 10), path)
        tracemalloc.start()
        try:
            read_rows(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4 MiB float32 chunk and its 1 MiB finite mask, against the
        # file's 23 MiB of values
        assert peak < values.nbytes // 4
