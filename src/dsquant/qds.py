"""QDS v1: bit-exact container for quantized datasets.

Layout (all little-endian):

    header, 34 bytes:
        magic        4s   "QDS1"
        version      u16  1
        sample_count u64
        height       u32
        width        u32
        channels     u32
        num_classes  u32
        flags        u32  must be 1 (bit 0: labels present)

    record, one per sample in dataset order:
        bit_width    u8   0 (dropped) or 2..16
        label        u32
        scale        f32  present iff bit_width >= 2; finite and positive
        payload      ceil(n*b/8) bytes, iff bit_width >= 2
                     (offset-binary codes, MSB-first; see quantizer)

Dropped samples keep a 5-byte tombstone so the record index stays
aligned with score and plan files. Identical (dataset, plan) inputs
produce byte-identical files.

Records are encoded and decoded one width group at a time, in fixed row
chunks, as array operations. The reader finds every record's offset in
one walk over the record prefixes, decoding checks each record's scale
and payload, and QdsRecords.dequantized is the one dequantizing loop.
The bit layout lives in dsquant._bitpack_py; this module slices bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._bitpack_py import payload_bytes
from .allocator import ORIGINAL_BITS, AllocationPlan, compression_ratio
from .dataset import Dataset, SampleShape, write_atomically
from .quantizer import (
    MAX_BIT_WIDTH,
    QuantizedSample,
    dequantize_rows,
    is_valid_bit_width,
    max_code,
    pack_code_rows,
    quantize_rows,
    row_chunks,
    unpack_code_rows,
)

QDS_MAGIC = b"QDS1"
QDS_VERSION = 1
FLAG_LABELS = 1

_HEADER = struct.Struct("<4sHQIIIII")
HEADER_BYTES = _HEADER.size  # 34

PREFIX_BYTES = 5  # bit_width u8, label u32
_SCALE_AT = PREFIX_BYTES
_PAYLOAD_AT = PREFIX_BYTES + 4
_F32_MAX = float(np.finfo(np.float32).max)


class QdsFormatError(ValueError):
    """Structurally invalid QDS data (bad magic, truncation, bad widths)."""


@dataclass(frozen=True)
class QdsHeader:
    sample_count: int
    shape: SampleShape
    num_classes: int


@dataclass(frozen=True)
class StorageReport:
    payload_bits: int
    scale_bits: int
    metadata_bits: int  # per-record bit_width + label fields
    total_bytes: int    # includes the 34-byte header
    nominal_ratio: float
    realized_ratio: float


def _build_report(shape: SampleShape, assignments) -> StorageReport:
    assignments = np.asarray(assignments, dtype=np.int64)
    n = assignments.size
    elems = shape.element_count
    widths, counts = np.unique(assignments[assignments > 0], return_counts=True)
    payload_bits = 8 * sum(int(k) * payload_bytes(elems, int(b))
                           for b, k in zip(widths, counts))
    scale_bits = 32 * int(counts.sum())
    metadata_bits = (8 + 32) * n
    total_bits = HEADER_BYTES * 8 + payload_bits + scale_bits + metadata_bits
    total_bytes = (total_bits + 7) // 8
    b_avg = int(assignments.sum()) / n if n else 0.0
    original_bits = n * elems * ORIGINAL_BITS
    realized = 1.0 - total_bits / original_bits if original_bits else 0.0
    return StorageReport(payload_bits, scale_bits, metadata_bits, total_bytes,
                         compression_ratio(b_avg), realized)


def _scatter(out: np.ndarray, at: np.ndarray, rows: np.ndarray) -> None:
    """Copy row i's bytes into out at offset at[i]."""
    rows = np.ascontiguousarray(rows).view(np.uint8).reshape(len(at), -1)
    sliding_window_view(out, rows.shape[1], writeable=True)[at] = rows


def write_qds(dataset: Dataset, plan: AllocationPlan, path) -> StorageReport:
    """Quantize per the plan and write the container atomically."""
    if len(plan) != len(dataset):
        raise ValueError(
            f"plan covers {len(plan)} samples, dataset has {len(dataset)}"
        )
    widths = np.asarray(plan.assignments, dtype=np.int64)
    if not is_valid_bit_width(widths).all():
        raise ValueError("plan has an invalid bit width")
    header = _HEADER.pack(
        QDS_MAGIC, QDS_VERSION, len(dataset),
        dataset.shape.height, dataset.shape.width, dataset.shape.channels,
        dataset.num_classes, FLAG_LABELS,
    )
    elems = dataset.shape.element_count
    sizes = np.where(widths > 0, _PAYLOAD_AT + (elems * widths + 7) // 8, PREFIX_BYTES)

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(header)
            for chunk in row_chunks(len(dataset), elems):
                w, size, values = widths[chunk], sizes[chunk], dataset.values[chunk]
                at = np.cumsum(size) - size  # record starts within this chunk
                out = np.zeros(int(size.sum()), dtype=np.uint8)
                out[at] = w
                _scatter(out, at + 1, dataset.labels[chunk].astype("<u4"))
                for bits in np.unique(w[w > 0]).tolist():
                    rows = np.flatnonzero(w == bits)
                    codes, scales = quantize_rows(values[rows], bits)
                    _scatter(out, at[rows] + _SCALE_AT, scales.astype("<f4"))
                    _scatter(out, at[rows] + _PAYLOAD_AT, pack_code_rows(codes, bits))
                fh.write(out)

    write_atomically(path, write)
    return _build_report(dataset.shape, widths)


class QdsRecords:
    """A container read into memory with its structure checked: magic,
    version, flags, a sample count the file can hold, every record's width,
    extent and label, and no trailing bytes. decode() checks the rest."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < HEADER_BYTES:
            raise QdsFormatError("truncated file: header")
        magic, version, count, h, w, c, num_classes, flags = _HEADER.unpack_from(raw)
        if magic != QDS_MAGIC:
            raise QdsFormatError(f"bad magic {magic!r}, expected {QDS_MAGIC!r}")
        if version != QDS_VERSION:
            raise QdsFormatError(f"unsupported version {version}")
        if flags != FLAG_LABELS:
            raise QdsFormatError(f"unsupported flags {flags:#x}, expected {FLAG_LABELS}")
        if count > (len(raw) - HEADER_BYTES) // PREFIX_BYTES:
            raise QdsFormatError(f"header claims {count} records, more than "
                                 f"a {len(raw)}-byte file holds")
        self.header = QdsHeader(count, SampleShape(h, w, c), num_classes)
        elems = self.header.shape.element_count
        sizes = {b: _PAYLOAD_AT + payload_bytes(elems, b) if b else PREFIX_BYTES
                 for b in range(MAX_BIT_WIDTH + 1) if is_valid_bit_width(b)}
        offsets, pos = [], HEADER_BYTES
        for i in range(count):
            if pos >= len(raw):
                raise QdsFormatError(f"truncated file: record {i}")
            size = sizes.get(raw[pos])
            if size is None:
                raise QdsFormatError(f"record {i}: invalid bit width {raw[pos]}")
            if pos + size > len(raw):
                raise QdsFormatError(f"truncated file: record {i}")
            offsets.append(pos)
            pos += size
        if pos != len(raw):
            raise QdsFormatError("trailing bytes after final record")
        self.data = np.frombuffer(raw, dtype=np.uint8)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.widths = self.data[self.offsets].astype(np.int64)  # 0 = dropped
        self.labels = (sliding_window_view(self.data, 4)[self.offsets + 1]
                       .view("<u4")[:, 0].astype(np.int64))
        bad = np.flatnonzero(self.labels >= num_classes)
        if bad.size:
            raise QdsFormatError(f"record {bad[0]}: label {self.labels[bad[0]]} "
                                 f"out of range for {num_classes} classes")

    def decode(self, rows):
        """Yield (positions, bit_width, codes, scales) for the stored
        records among rows, a width group and row chunk at a time;
        positions index into rows."""
        rows = np.asarray(rows, dtype=np.int64)
        count = self.header.shape.element_count
        widths = self.widths[rows]
        for bits in np.unique(widths[widths > 0]).tolist():
            group = np.flatnonzero(widths == bits)
            payload = sliding_window_view(self.data, payload_bytes(count, bits))
            for chunk in row_chunks(group.size, count):
                positions = group[chunk]
                at = self.offsets[rows[positions]]
                try:
                    codes = unpack_code_rows(payload[at + _PAYLOAD_AT], count, bits)
                except ValueError as exc:
                    raise QdsFormatError(f"{bits}-bit record payload: {exc}") from exc
                scales = sliding_window_view(self.data, 4)[at + _SCALE_AT].view("<f4")[:, 0]
                with np.errstate(invalid="ignore"):  # casting a signaling NaN
                    largest = scales.astype(np.float64) * max_code(bits)
                bad = np.flatnonzero(~((scales > 0) & (largest <= _F32_MAX)))
                if bad.size:  # the writer's scales are positive, Q * scale a float32
                    raise QdsFormatError(f"record {rows[positions[bad[0]]]}: scale "
                                         f"{scales[bad[0]]} is out of range for {bits}-bit codes")
                yield positions, bits, codes, scales

    def dequantized(self, rows, dtype) -> np.ndarray:
        """The stored records at rows, in that order, dequantized into one
        (len(rows), D) array of dtype, a width group and row chunk at a
        time. A tombstone among rows is an error."""
        rows = np.asarray(rows, dtype=np.int64)
        dropped = rows[self.widths[rows] == 0]
        if dropped.size:
            raise ValueError(f"record {dropped[0]} was dropped, it has no values")
        out = np.empty((rows.size, self.header.shape.element_count), dtype)
        for positions, _, codes, scales in self.decode(rows):
            out[positions] = dequantize_rows(codes, scales)
        return out


def read_qds(path):
    """Read a container; returns (records, header) where a record is a
    QuantizedSample or None for a dropped sample."""
    stored = QdsRecords(path)
    labels = stored.labels.tolist()
    records = [None] * stored.header.sample_count
    for positions, bits, codes, scales in stored.decode(np.arange(len(records))):
        for k, i in enumerate(positions.tolist()):
            records[i] = QuantizedSample(codes[k], scales[k], bits, labels[i])
    return records, stored.header


def storage_report(path) -> StorageReport:
    """Recompute the storage accounting from an existing file, after
    checking every record's payload."""
    stored = QdsRecords(path)
    for _ in stored.decode(np.arange(stored.header.sample_count)):
        pass  # decoding rejects nonzero pad bits and the reserved sentinel
    return _build_report(stored.header.shape, stored.widths)


def materialize_training_set(path) -> Dataset:
    """Dequantize all surviving records into an in-memory Dataset."""
    stored = QdsRecords(path)
    kept = np.flatnonzero(stored.widths > 0)
    return Dataset(stored.header.shape, stored.header.num_classes,
                   stored.dequantized(kept, np.float32), stored.labels[kept])
