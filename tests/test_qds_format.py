import hashlib
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from reference import every_row, raw_rows, reference_dequantized, reference_pack

from dsquant import parallel, quantizer
from dsquant._bitpack_py import payload_bytes
from dsquant.allocator import AllocationPlan
from dsquant.cli import EXIT_VALIDATION, main
from dsquant.dataset import DatasetRows, SampleShape, synth_blobs, write_dataset_file
from dsquant.qds import (
    HEADER_BYTES,
    PREFIX_BYTES,
    QdsFormatError,
    QdsRecords,
    materialize_training_set,
    read_qds,
    storage_report,
    write_qds,
)
from dsquant.quantizer import (
    dequantize_rows,
    max_code,
    pack_codes,
    quantize_rows,
    quantize_sample,
)
from dsquant.trainer import stratified_split


def small_dataset(root, n=3, dim=4, seed=0, num_classes=3):
    """A row source of n seeded normal rows of 1x1xdim, written under root."""
    rng = np.random.default_rng(seed)
    return raw_rows(root, rng.standard_normal((n, dim)).astype(np.float32),
                    rng.integers(0, num_classes, n), SampleShape(1, 1, dim), num_classes)


def plan_of(bits):
    return AllocationPlan.from_assignments(np.asarray(bits, dtype=np.int32))


class TestWriteQds:
    def test_empty_dataset_is_header_only(self, tmp_path):
        dset = small_dataset(tmp_path, n=0)
        path = tmp_path / "empty.qds"
        # an empty plan is invalid, so write via a 1-sample plan trimmed:
        # build the degenerate container directly through write_qds with
        # a zero-length dataset and a zero-length assignment array
        plan = AllocationPlan(np.zeros(0, np.int32), 0.0, 1.0)
        write_qds(dset, plan, path)
        assert path.stat().st_size == HEADER_BYTES == 34

    def test_single_8bit_record_size(self, tmp_path):
        dset = small_dataset(tmp_path, n=1, dim=1)
        path = tmp_path / "one.qds"
        write_qds(dset, plan_of([8]), path)
        assert path.stat().st_size == 34 + (1 + 4 + 4 + 1)

    def test_tombstone_is_five_bytes(self, tmp_path):
        dset = small_dataset(tmp_path, n=1, dim=1)
        path = tmp_path / "drop.qds"
        write_qds(dset, plan_of([0]), path)
        assert path.stat().st_size == 34 + 5

    def test_byte_deterministic(self, tmp_path):
        dset = small_dataset(tmp_path, n=5, dim=7)
        plan = plan_of([8, 0, 4, 16, 2])
        a, b = tmp_path / "a.qds", tmp_path / "b.qds"
        write_qds(dset, plan, a)
        write_qds(dset, plan, b)
        assert a.read_bytes() == b.read_bytes()

    def test_plan_dataset_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="plan covers"):
            write_qds(small_dataset(tmp_path, n=3), plan_of([8, 8]), tmp_path / "x.qds")

    @pytest.mark.parametrize("bits", [1, 17, -2])
    def test_plan_with_an_invalid_width(self, tmp_path, bits):
        dset, out_dir = small_dataset(tmp_path, n=3), tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(ValueError, match="^plan has an invalid bit width$"):
            write_qds(dset, plan_of([8, bits, 4]), out_dir / "x.qds")
        assert list(out_dir.iterdir()) == []

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.qds"
        with pytest.raises(ValueError):
            write_qds(small_dataset(tmp_path, n=3), plan_of([8, 8]), target)
        assert not target.exists()

    def test_no_temp_file_when_encoding_fails(self, tmp_path, monkeypatch):
        def fail(codes, bits):
            raise OSError("disk full")

        monkeypatch.setattr("dsquant.qds.pack_code_rows", fail)
        dset, out_dir = small_dataset(tmp_path, n=3), tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(OSError):
            write_qds(dset, plan_of([8, 0, 4]), out_dir / "out.qds")
        assert list(out_dir.iterdir()) == []

    def test_matches_per_record_reference_writer(self, tmp_path):
        # more rows than one write chunk holds, in mixed widths
        rng = np.random.default_rng(21)
        dset = small_dataset(tmp_path, n=2500, dim=700, seed=21, num_classes=5)
        bits = rng.choice([0, 2, 3, 8, 11, 16], 2500)
        path = tmp_path / "batched.qds"
        write_qds(dset, plan_of(bits), path)
        expected = [struct.pack("<4sHQIIIII", b"QDS1", 1, 2500, 1, 1, 700, 5, 1)]
        rows = every_row(dset)
        for i, b in enumerate(bits):
            values, label = rows[i], int(dset.labels[i])
            expected.append(struct.pack("<BI", b, label))
            if b:
                q = quantize_sample(values, int(b), label)
                expected.append(struct.pack("<f", q.scale) + pack_codes(q).payload)
        assert path.read_bytes() == b"".join(expected)

    def test_bytes_are_pinned(self, tmp_path):
        # integer arithmetic and one IEEE division give the same float32
        # values on every NumPy, so the hash pins the format itself
        widths = [0] + list(range(2, 17))
        i, j = np.arange(2 * len(widths))[:, None], np.arange(37)[None, :]
        values = (((i * 7919 + j * 104729) % 2001 - 1000) / 37).astype(np.float32)
        dset = raw_rows(tmp_path, values, np.arange(len(values)) % 3, SampleShape(1, 1, 37), 3)
        path = tmp_path / "pinned.qds"
        write_qds(dset, plan_of(widths * 2), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9b59b07380cdc7968c85a4e511445dbd1bd2e6126df83439b991c60b44758845")


class TestForkedWriter:
    """With two row chunks or more, a forked child encodes the second half
    of them into the file while the caller encodes the first; the file and
    the report must not change, and the file is read a chunk at a time."""

    @pytest.mark.parametrize("source", ["dataset", "rows"])
    def test_forked_and_inline_write_the_same_file(self, tmp_path, monkeypatch, forks,
                                                   source):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 37)  # 64 rows of 37
        rng = np.random.default_rng(13)
        dset = small_dataset(tmp_path, n=300, dim=37, seed=13, num_classes=4)  # 5 row chunks
        plan = plan_of(rng.choice([0, 2, 8, 16], 300))
        write_dataset_file(dset, tmp_path / "data.dsr")
        out_dir, written = tmp_path / "out", {}
        out_dir.mkdir()
        for fork in (True, False):
            monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread, fork=fork: fork)
            path = out_dir / f"fork-{fork}.qds"
            report = write_qds(dset if source == "dataset" else DatasetRows(tmp_path / "data.dsr"),
                               plan, path)
            written[fork] = (hashlib.sha256(path.read_bytes()).hexdigest(), report)
        assert len(forks) == 1
        assert written[True] == written[False]
        assert sorted(p.name for p in out_dir.iterdir()) == ["fork-False.qds", "fork-True.qds"]

    def test_forks_on_two_cores(self, tmp_path, monkeypatch, forks):
        if len(os.sched_getaffinity(0)) < 2 or parallel.openblas_threads() is None:
            pytest.skip("needs two usable cores and a settable OpenBLAS")
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 64 * 37)  # 64 rows of 37
        write_qds(small_dataset(tmp_path, n=128, dim=37), plan_of([8] * 128),
                  tmp_path / "data.qds")
        assert len(forks) == 1

    def test_holds_one_row_chunk_of_values(self, tmp_path, monkeypatch):
        # quantize_rows takes float64 and int16 copies of a chunk (10 MB
        # at the default chunk here), so the chunk is shrunk to show the
        # peak follows it and not the 2000 rows of values
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 1 << 16)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)
        rng = np.random.default_rng(6)
        values = rng.standard_normal((2000, 3072), dtype=np.float32)
        write_dataset_file(raw_rows(tmp_path, values, rng.integers(0, 10, 2000),
                                    SampleShape(32, 32, 3), 10), tmp_path / "data.bin")
        plan, values_bytes = plan_of(rng.choice([0, 2, 8, 16], 2000)), values.nbytes
        del values
        rows = DatasetRows(tmp_path / "data.bin")
        tracemalloc.start()
        try:
            write_qds(rows, plan, tmp_path / "data.qds")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values_bytes // 4


class TestReadQds:
    def test_mixed_plan_round_trip(self, tmp_path):
        dset = small_dataset(tmp_path, n=3, dim=6, seed=4)
        path = tmp_path / "mixed.qds"
        write_qds(dset, plan_of([8, 0, 4]), path)
        records, header = read_qds(path)
        assert header.sample_count == 3
        assert records[1] is None
        rows = every_row(dset)
        for i, bits in ((0, 8), (2, 4)):
            values, label = rows[i], int(dset.labels[i])
            expected = quantize_sample(values, bits, label)
            np.testing.assert_array_equal(records[i].codes, expected.codes)
            assert records[i].scale.tobytes() == expected.scale.tobytes()
            assert records[i].label == label
            assert records[i].bit_width == bits

    def test_every_record_of_many_row_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quantizer, "CHUNK_ELEMENTS", 8 * 6)  # 8 rows of 6
        bits = np.random.default_rng(5).choice([0, 2, 3, 8, 11, 16], 200)
        dset = small_dataset(tmp_path, n=200, dim=6, seed=5)
        path = tmp_path / "many.qds"
        write_qds(dset, plan_of(bits), path)
        records, header = read_qds(path)
        assert header.sample_count == 200
        for i, (values, b) in enumerate(zip(every_row(dset), bits.tolist())):
            if b == 0:
                assert records[i] is None
                continue
            codes, scales = quantize_rows(values[None], b)
            np.testing.assert_array_equal(records[i].codes, codes[0])
            assert records[i].scale.tobytes() == scales[0].tobytes()
            assert (records[i].bit_width, records[i].label) == (b, dset.labels[i])

    def test_corrupted_magic(self, tmp_path):
        dset = small_dataset(tmp_path)
        path = tmp_path / "bad.qds"
        write_qds(dset, plan_of([8, 8, 8]), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(QdsFormatError, match="magic"):
            read_qds(path)

    def test_truncation_names_record(self, tmp_path):
        dset = small_dataset(tmp_path)
        path = tmp_path / "trunc.qds"
        write_qds(dset, plan_of([8, 8, 8]), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(QdsFormatError, match="record 2"):
            read_qds(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        dset = small_dataset(tmp_path)
        path = tmp_path / "extra.qds"
        write_qds(dset, plan_of([8, 8, 8]), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(QdsFormatError, match="trailing"):
            read_qds(path)

    def test_random_mixed_datasets_round_trip(self, tmp_path):
        rng = np.random.default_rng(99)
        widths = np.array([0, 2, 3, 4, 8, 12, 16])
        for trial in range(25):
            n = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 9))
            dset = small_dataset(tmp_path, n=n, dim=dim, seed=trial)
            plan = plan_of(rng.choice(widths, n))
            path = tmp_path / f"t{trial}.qds"
            write_qds(dset, plan, path)
            records, _ = read_qds(path)
            rows = every_row(dset)
            for i in range(n):
                bits = int(plan.assignments[i])
                if bits == 0:
                    assert records[i] is None
                    continue
                values, label = rows[i], int(dset.labels[i])
                expected = quantize_sample(values, bits, label)
                np.testing.assert_array_equal(records[i].codes, expected.codes)
                assert records[i].scale.tobytes() == expected.scale.tobytes()


class TestHostileInput:
    @staticmethod
    def _written(tmp_path, bits=(8, 0, 4)):
        path = tmp_path / "h.qds"
        write_qds(small_dataset(tmp_path, n=len(bits), dim=6), plan_of(bits), path)
        return path, bytearray(path.read_bytes())

    # record 1 is a tombstone, whose label is checked too
    @pytest.mark.parametrize("record, at", [(0, 1), (1, 15 + 1)])
    def test_label_out_of_range(self, tmp_path, record, at):
        path, data = self._written(tmp_path)
        struct.pack_into("<I", data, HEADER_BYTES + at, 99)
        path.write_bytes(bytes(data))
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match=f"record {record}: label 99"):
                reader(path)

    def test_huge_sample_count_fails_before_allocating(self, tmp_path):
        path, data = self._written(tmp_path)
        struct.pack_into("<Q", data, 6, 2 ** 62)
        path.write_bytes(bytes(data))
        with pytest.raises(QdsFormatError, match="header claims"):
            read_qds(path)

    def test_reserved_sentinel_in_payload(self, tmp_path):
        path, data = self._written(tmp_path, bits=(4,))
        data[HEADER_BYTES + 9] = 0xFF
        path.write_bytes(bytes(data))
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match="reserved"):
                reader(path)

    def test_unknown_flags(self, tmp_path):
        path, data = self._written(tmp_path)
        struct.pack_into("<I", data, HEADER_BYTES - 4, 0xFFFF)
        path.write_bytes(bytes(data))
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match="unsupported flags 0xffff"):
                reader(path)

    def test_unsupported_version(self, tmp_path, capsys):
        path, data = self._written(tmp_path)
        struct.pack_into("<H", data, 4, 2)  # the version, after the magic
        path.write_bytes(bytes(data))
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError,
                               match=f"^{re.escape(str(path))}: unsupported version 2$"):
                reader(path)
        assert main(["stats", "--qds", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {path}: unsupported version 2\n")

    # the last one is finite, but 127 times it overflows a float32
    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0, 3e38])
    def test_scale_the_writer_cannot_produce(self, tmp_path, capsys, scale):
        dset = small_dataset(tmp_path, n=10, dim=6)
        record = stratified_split(dset.labels, 42)[0][0]  # one compare trains on
        dsr, path = tmp_path / "h.dsr", tmp_path / "h.qds"
        write_dataset_file(dset, dsr)
        write_qds(dset, plan_of([8] * 10), path)
        data = bytearray(path.read_bytes())
        record_bytes = PREFIX_BYTES + 4 + 6  # prefix, scale, 6 one-byte codes
        struct.pack_into("<f", data, HEADER_BYTES + record * record_bytes + PREFIX_BYTES,
                         scale)
        path.write_bytes(bytes(data))
        message = (f"{path}: record {record}: scale {np.float32(scale)} "
                   "is out of range for 8-bit codes")
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match=f"^{re.escape(message)}$"):
                reader(path)
        for argv in (["stats"], ["compare", "--dataset", str(dsr), "--epochs", "2"]):
            assert main([*argv, "--qds", str(path)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_a_byte_path_sentinel_or_pad_bit_is_refused(self, tmp_path, bits):
        # 7 codes leave 2 pad bits at 2 bits and 4 at 4 bits, none at 8 or 16
        path, nbytes = tmp_path / "h.qds", payload_bytes(7, bits)
        write_qds(small_dataset(tmp_path, n=3, dim=7), plan_of([bits] * 3), path)
        good = path.read_bytes()
        at = HEADER_BYTES + (PREFIX_BYTES + 4 + nbytes) + PREFIX_BYTES + 4  # record 1's payload
        faults = []
        for k in (0, 5, 6):
            codes = [0] * 7
            codes[k] = max_code(bits) + 1  # offset 2^b - 1: all ones
            faults.append((good[:at] + reference_pack(codes, bits) + good[at + nbytes:],
                           f"reserved offset {(1 << bits) - 1} in payload"))
        if 7 * bits % 8:
            padded = bytearray(good)
            padded[at + nbytes - 1] |= 1
            faults.append((bytes(padded), "nonzero trailing pad bits"))
        for data, problem in faults:
            path.write_bytes(data)
            message = f"{path}: {bits}-bit record payload: {problem}"
            with pytest.raises(QdsFormatError, match=f"^{re.escape(message)}$"):
                storage_report(path)

    @pytest.mark.parametrize("field, at", [("height", 14), ("width", 18), ("channels", 22)])
    def test_a_zero_dimension_names_the_file(self, tmp_path, capsys, field, at):
        path, data = self._written(tmp_path)
        data[at:at + 4] = bytes(4)
        path.write_bytes(bytes(data))
        message = f"{path}: {field} must be a positive integer, got 0"
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match=f"^{re.escape(message)}$"):
                reader(path)
        assert main(["stats", "--qds", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_truncated_file_is_named_by_stats_and_compare(self, tmp_path, capsys):
        dset = small_dataset(tmp_path, n=10, dim=6)
        dsr, path = tmp_path / "h.dsr", tmp_path / "h.qds"
        write_dataset_file(dset, dsr)
        write_qds(dset, plan_of([8] * 10), path)
        path.write_bytes(path.read_bytes()[:40])
        message = f"{path}: header claims 10 records, more than a 40-byte file holds"
        for argv in (["stats"], ["compare", "--dataset", str(dsr), "--epochs", "2"]):
            assert main([*argv, "--qds", str(path)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_invalid_width_names_record(self, tmp_path):
        path, data = self._written(tmp_path)
        data[HEADER_BYTES + 15] = 1  # record 1's width byte
        path.write_bytes(bytes(data))
        with pytest.raises(QdsFormatError, match="record 1: invalid bit width"):
            read_qds(path)


class TestMaterialize:
    def test_all_dropped_gives_empty_dataset(self, tmp_path):
        dset = small_dataset(tmp_path, n=4)
        path = tmp_path / "gone.qds"
        write_qds(dset, plan_of([0, 0, 0, 0]), path)
        values, labels = materialize_training_set(path)
        assert values.shape == (0, 4) and values.dtype == np.float32
        assert labels.shape == (0,) and labels.dtype == np.int64

    def test_drop_count(self, tmp_path):
        dset = small_dataset(tmp_path, n=5)
        path = tmp_path / "some.qds"
        write_qds(dset, plan_of([8, 0, 8, 0, 8]), path)
        values, labels = materialize_training_set(path)
        assert len(values) == 3
        np.testing.assert_array_equal(labels, dset.labels[[0, 2, 4]])

    def test_16bit_reconstruction_error_bound(self, tmp_path):
        dset = synth_blobs(3, 16, 20, 0.5, seed=8)
        path = tmp_path / "fine.qds"
        write_qds(dset, plan_of([16] * 60), path)
        out, _ = materialize_training_set(path)
        for i, values in enumerate(every_row(dset)):
            scale = float(quantize_sample(values, 16).scale)
            err = np.abs(out[i].astype(np.float64) - values.astype(np.float64)).max()
            assert err <= scale / 2 + 4 * np.spacing(np.abs(values).max())

    def test_matches_in_memory_dequantization(self, tmp_path):
        dset = small_dataset(tmp_path, n=6, dim=5, seed=3)
        bits = [8, 4, 0, 16, 2, 8]
        path = tmp_path / "eq.qds"
        write_qds(dset, plan_of(bits), path)
        out, _ = materialize_training_set(path)
        j = 0
        for values, b in zip(every_row(dset), bits):
            if b == 0:
                continue
            expected = dequantize_rows(*quantize_rows(values[None], b))[0]
            np.testing.assert_array_equal(out[j], expected)
            j += 1

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_largest_float32_is_readable(self, tmp_path, bits):
        top = np.finfo(np.float32).max
        values = np.array([[top, -top]], np.float32)
        dset = raw_rows(tmp_path, values, np.zeros(1), SampleShape(1, 1, 2), 1)
        path = tmp_path / "top.qds"
        write_qds(dset, plan_of([bits]), path)
        scale = float(read_qds(path)[0][0].scale)
        restored = materialize_training_set(path)[0].astype(np.float64)
        assert (np.abs(restored - values) <= scale / 2).all()

    def test_the_rows_are_the_stored_records(self, tmp_path):
        path = tmp_path / "rows.qds"
        write_qds(small_dataset(tmp_path, n=5), plan_of([8, 0, 4, 16, 0]), path)
        stored = QdsRecords(path)
        kept, values, labels = reference_dequantized(path)
        assert stored.kept.tolist() == kept.tolist() == [0, 2, 3]
        assert stored.widths.tolist() == [8, 0, 4, 16, 0]
        np.testing.assert_array_equal(stored.labels, labels)
        np.testing.assert_array_equal(stored.take(np.array([0, 2]), np.float64), values[[0, 2]])
        np.testing.assert_array_equal(materialize_training_set(path)[0], values)


class TestStorageReport:
    def test_accounting_identity(self, tmp_path):
        dset = small_dataset(tmp_path, n=4, dim=5)
        bits = [8, 0, 3, 16]
        path = tmp_path / "acct.qds"
        report = write_qds(dset, plan_of(bits), path)
        payload = sum(8 * ((5 * b + 7) // 8) for b in bits if b)
        assert report.payload_bits == payload
        assert report.scale_bits == 32 * 3
        assert report.metadata_bits == 40 * 4
        assert report.total_bytes == path.stat().st_size
        assert report.nominal_ratio == 1 - (sum(bits) / 4) / 32

    def test_report_recomputable_from_file(self, tmp_path):
        dset = small_dataset(tmp_path, n=4, dim=5)
        path = tmp_path / "re.qds"
        written = write_qds(dset, plan_of([8, 0, 3, 16]), path)
        assert storage_report(path) == written

    def test_realized_approaches_nominal_from_below(self, tmp_path):
        realized = []
        for dim in (8, 64, 512):
            dset = small_dataset(tmp_path, n=10, dim=dim)
            path = tmp_path / f"n{dim}.qds"
            report = write_qds(dset, plan_of([8] * 10), path)
            assert report.realized_ratio < report.nominal_ratio == 0.75
            realized.append(report.realized_ratio)
        assert realized == sorted(realized)
        assert 0.75 - realized[-1] < 0.01
