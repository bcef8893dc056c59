import hashlib
import re
import struct

import numpy as np
import pytest

from dsquant.allocator import AllocationPlan
from dsquant.cli import EXIT_VALIDATION, main
from dsquant.dataset import Dataset, SampleShape, synth_blobs, write_dataset_file
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
from dsquant.quantizer import dequantize_rows, pack_codes, quantize_rows, quantize_sample
from dsquant.trainer import stratified_split


def small_dataset(n=3, dim=4, seed=0, num_classes=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        SampleShape(1, 1, dim), num_classes,
        rng.standard_normal((n, dim)).astype(np.float32),
        rng.integers(0, num_classes, n),
    )


def plan_of(bits):
    return AllocationPlan.from_assignments(np.asarray(bits, dtype=np.int32))


class TestWriteQds:
    def test_empty_dataset_is_header_only(self, tmp_path):
        dset = small_dataset(n=0)
        path = tmp_path / "empty.qds"
        # an empty plan is invalid, so write via a 1-sample plan trimmed:
        # build the degenerate container directly through write_qds with
        # a zero-length dataset and a zero-length assignment array
        plan = AllocationPlan(np.zeros(0, np.int32), 0.0, 1.0)
        write_qds(dset, plan, path)
        assert path.stat().st_size == HEADER_BYTES == 34

    def test_single_8bit_record_size(self, tmp_path):
        dset = small_dataset(n=1, dim=1)
        path = tmp_path / "one.qds"
        write_qds(dset, plan_of([8]), path)
        assert path.stat().st_size == 34 + (1 + 4 + 4 + 1)

    def test_tombstone_is_five_bytes(self, tmp_path):
        dset = small_dataset(n=1, dim=1)
        path = tmp_path / "drop.qds"
        write_qds(dset, plan_of([0]), path)
        assert path.stat().st_size == 34 + 5

    def test_byte_deterministic(self, tmp_path):
        dset = small_dataset(n=5, dim=7)
        plan = plan_of([8, 0, 4, 16, 2])
        a, b = tmp_path / "a.qds", tmp_path / "b.qds"
        write_qds(dset, plan, a)
        write_qds(dset, plan, b)
        assert a.read_bytes() == b.read_bytes()

    def test_plan_dataset_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="plan covers"):
            write_qds(small_dataset(n=3), plan_of([8, 8]), tmp_path / "x.qds")

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.qds"
        with pytest.raises(ValueError):
            write_qds(small_dataset(n=3), plan_of([8, 8]), target)
        assert not target.exists()

    def test_no_temp_file_when_encoding_fails(self, tmp_path, monkeypatch):
        def fail(codes, bits):
            raise OSError("disk full")

        monkeypatch.setattr("dsquant.qds.pack_code_rows", fail)
        with pytest.raises(OSError):
            write_qds(small_dataset(n=3), plan_of([8, 0, 4]), tmp_path / "out.qds")
        assert list(tmp_path.iterdir()) == []

    def test_matches_per_record_reference_writer(self, tmp_path):
        # more rows than one write chunk holds, in mixed widths
        rng = np.random.default_rng(21)
        dset = small_dataset(n=2500, dim=700, seed=21, num_classes=5)
        bits = rng.choice([0, 2, 3, 8, 11, 16], len(dset))
        path = tmp_path / "batched.qds"
        write_qds(dset, plan_of(bits), path)
        expected = [struct.pack("<4sHQIIIII", b"QDS1", 1, len(dset), 1, 1, 700, 5, 1)]
        for i, b in enumerate(bits):
            values, label = dset.values[i], int(dset.labels[i])
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
        dset = Dataset(SampleShape(1, 1, 37), 3, values, np.arange(len(values)) % 3)
        path = tmp_path / "pinned.qds"
        write_qds(dset, plan_of(widths * 2), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9b59b07380cdc7968c85a4e511445dbd1bd2e6126df83439b991c60b44758845")


class TestReadQds:
    def test_mixed_plan_round_trip(self, tmp_path):
        dset = small_dataset(n=3, dim=6, seed=4)
        path = tmp_path / "mixed.qds"
        write_qds(dset, plan_of([8, 0, 4]), path)
        records, header = read_qds(path)
        assert header.sample_count == 3
        assert records[1] is None
        for i, bits in ((0, 8), (2, 4)):
            values, label = dset.values[i], int(dset.labels[i])
            expected = quantize_sample(values, bits, label)
            np.testing.assert_array_equal(records[i].codes, expected.codes)
            assert records[i].scale.tobytes() == expected.scale.tobytes()
            assert records[i].label == label
            assert records[i].bit_width == bits

    def test_corrupted_magic(self, tmp_path):
        dset = small_dataset()
        path = tmp_path / "bad.qds"
        write_qds(dset, plan_of([8, 8, 8]), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(QdsFormatError, match="magic"):
            read_qds(path)

    def test_truncation_names_record(self, tmp_path):
        dset = small_dataset()
        path = tmp_path / "trunc.qds"
        write_qds(dset, plan_of([8, 8, 8]), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(QdsFormatError, match="record 2"):
            read_qds(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        dset = small_dataset()
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
            dset = small_dataset(n=n, dim=dim, seed=trial)
            plan = plan_of(rng.choice(widths, n))
            path = tmp_path / f"t{trial}.qds"
            write_qds(dset, plan, path)
            records, _ = read_qds(path)
            for i in range(n):
                bits = int(plan.assignments[i])
                if bits == 0:
                    assert records[i] is None
                    continue
                values, label = dset.values[i], int(dset.labels[i])
                expected = quantize_sample(values, bits, label)
                np.testing.assert_array_equal(records[i].codes, expected.codes)
                assert records[i].scale.tobytes() == expected.scale.tobytes()


class TestHostileInput:
    @staticmethod
    def _written(tmp_path, bits=(8, 0, 4)):
        path = tmp_path / "h.qds"
        write_qds(small_dataset(n=len(bits), dim=6), plan_of(bits), path)
        return path, bytearray(path.read_bytes())

    def test_label_out_of_range(self, tmp_path):
        path, data = self._written(tmp_path)
        struct.pack_into("<I", data, HEADER_BYTES + 1, 99)
        path.write_bytes(bytes(data))
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match="record 0: label 99"):
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

    # the last one is finite, but 127 times it overflows a float32
    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0, 3e38])
    def test_scale_the_writer_cannot_produce(self, tmp_path, capsys, scale):
        dset = small_dataset(n=10, dim=6)
        record = stratified_split(dset, 42)[0][0]  # one compare trains on
        dsr, path = tmp_path / "h.dsr", tmp_path / "h.qds"
        write_dataset_file(dset, dsr)
        write_qds(dset, plan_of([8] * 10), path)
        data = bytearray(path.read_bytes())
        record_bytes = PREFIX_BYTES + 4 + 6  # prefix, scale, 6 one-byte codes
        struct.pack_into("<f", data, HEADER_BYTES + record * record_bytes + PREFIX_BYTES,
                         scale)
        path.write_bytes(bytes(data))
        message = f"record {record}: scale {np.float32(scale)} is out of range for 8-bit codes"
        for reader in (read_qds, storage_report, materialize_training_set):
            with pytest.raises(QdsFormatError, match=re.escape(message)):
                reader(path)
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
        dset = small_dataset(n=4)
        path = tmp_path / "gone.qds"
        write_qds(dset, plan_of([0, 0, 0, 0]), path)
        assert len(materialize_training_set(path)) == 0

    def test_drop_count(self, tmp_path):
        dset = small_dataset(n=5)
        path = tmp_path / "some.qds"
        write_qds(dset, plan_of([8, 0, 8, 0, 8]), path)
        out = materialize_training_set(path)
        assert len(out) == 3
        np.testing.assert_array_equal(out.labels, dset.labels[[0, 2, 4]])

    def test_16bit_reconstruction_error_bound(self, tmp_path):
        dset = synth_blobs(3, 16, 20, 0.5, seed=8)
        path = tmp_path / "fine.qds"
        write_qds(dset, plan_of([16] * len(dset)), path)
        out = materialize_training_set(path)
        for i in range(len(dset)):
            scale = float(quantize_sample(dset.values[i], 16).scale)
            err = np.abs(out.values[i].astype(np.float64)
                         - dset.values[i].astype(np.float64)).max()
            assert err <= scale / 2 + 4 * np.spacing(np.abs(dset.values[i]).max())

    def test_matches_in_memory_dequantization(self, tmp_path):
        dset = small_dataset(n=6, dim=5, seed=3)
        bits = [8, 4, 0, 16, 2, 8]
        path = tmp_path / "eq.qds"
        write_qds(dset, plan_of(bits), path)
        out = materialize_training_set(path)
        j = 0
        for i, b in enumerate(bits):
            if b == 0:
                continue
            values, label = dset.values[i], int(dset.labels[i])
            expected = dequantize_rows(*quantize_rows(values[None], b))[0]
            np.testing.assert_array_equal(out.values[j], expected)
            j += 1

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_largest_float32_is_readable(self, tmp_path, bits):
        top = np.finfo(np.float32).max
        dset = Dataset(SampleShape(1, 1, 2), 1, np.array([[top, -top]], np.float32),
                       np.zeros(1, np.int64))
        path = tmp_path / "top.qds"
        write_qds(dset, plan_of([bits]), path)
        scale = float(read_qds(path)[0][0].scale)
        restored = materialize_training_set(path).values.astype(np.float64)
        assert (np.abs(restored - dset.values) <= scale / 2).all()

    def test_dequantized_takes_rows_in_order_and_rejects_a_tombstone(self, tmp_path):
        path = tmp_path / "rows.qds"
        write_qds(small_dataset(n=3), plan_of([8, 0, 4]), path)
        stored = QdsRecords(path)
        np.testing.assert_array_equal(stored.dequantized([2, 0], np.float64),
                                      materialize_training_set(path).values[::-1])
        with pytest.raises(ValueError, match="record 1 was dropped"):
            stored.dequantized([0, 1], np.float64)


class TestStorageReport:
    def test_accounting_identity(self, tmp_path):
        dset = small_dataset(n=4, dim=5)
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
        dset = small_dataset(n=4, dim=5)
        path = tmp_path / "re.qds"
        written = write_qds(dset, plan_of([8, 0, 3, 16]), path)
        assert storage_report(path) == written

    def test_realized_approaches_nominal_from_below(self, tmp_path):
        realized = []
        for dim in (8, 64, 512):
            dset = small_dataset(n=10, dim=dim)
            path = tmp_path / f"n{dim}.qds"
            report = write_qds(dset, plan_of([8] * 10), path)
            assert report.realized_ratio < report.nominal_ratio == 0.75
            realized.append(report.realized_ratio)
        assert realized == sorted(realized)
        assert 0.75 - realized[-1] < 0.01
