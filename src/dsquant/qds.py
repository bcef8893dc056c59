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
                     (offset-binary codes, MSB-first, each 8 codes
                     in b bytes; see quantizer)

Dropped samples keep a 5-byte tombstone so the record index stays
aligned with score and plan files. Identical (dataset, plan) inputs
produce byte-identical files.

Records are encoded and decoded one width group at a time, in fixed row
chunks, as array operations. One width-to-record-size table serves the
writer, the reader's walk over the record prefixes that finds every
record's offset, and the storage report. Decoding checks each record's
scale and payload, and QdsRecords.dequantized is the one dequantizing
loop. The bit layout lives in dsquant._bitpack_py; this module slices bytes.

The writer takes its rows a chunk at a time from a Dataset or a
dataset.DatasetRows, so from a file it holds one chunk of values. The
plan alone gives every record's offset, and each chunk is written at its
offset after the header, so the order of the chunks does not change the
bytes: with two row chunks or more, parallel.started forks a child that
encodes the second half of them while the caller encodes the first (no
encoded bytes cross between the processes), and inline one process
encodes the second half, then the first.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import parallel
from ._bitpack_py import payload_bytes
from .allocator import ORIGINAL_BITS, AllocationPlan, compression_ratio
from .dataset import Dataset, SampleShape, write_atomically
from .quantizer import (
    F32_MAX,
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


def _record_sizes(elems: int) -> list:
    """Bytes in a record of elems elements, indexed by bit width 0..16;
    0 at a width no record has."""
    return [(_PAYLOAD_AT + payload_bytes(elems, b) if b else PREFIX_BYTES)
            if is_valid_bit_width(b) else 0 for b in range(MAX_BIT_WIDTH + 1)]


def _build_report(shape: SampleShape, assignments) -> StorageReport:
    assignments = np.asarray(assignments, dtype=np.int64)
    n = assignments.size
    counts = np.bincount(assignments, minlength=MAX_BIT_WIDTH + 1).tolist()
    total_bytes = HEADER_BYTES + sum(
        k * size for k, size in zip(counts, _record_sizes(shape.element_count)))
    scale_bits = 32 * (n - counts[0])
    metadata_bits = (8 + 32) * n
    payload_bits = 8 * (total_bytes - HEADER_BYTES) - scale_bits - metadata_bits
    b_avg = int(assignments.sum()) / n if n else 0.0
    original_bits = n * shape.element_count * ORIGINAL_BITS
    realized = 1.0 - 8 * total_bytes / original_bits if original_bits else 0.0
    return StorageReport(payload_bits, scale_bits, metadata_bits, total_bytes,
                         compression_ratio(b_avg), realized)


def _scatter(out: np.ndarray, at: np.ndarray, rows: np.ndarray) -> None:
    """Copy row i's bytes into out at offset at[i]."""
    rows = np.ascontiguousarray(rows).view(np.uint8).reshape(len(at), -1)
    sliding_window_view(out, rows.shape[1], writeable=True)[at] = rows


def _write_at(fd: int, data, offset: int) -> None:
    """os.pwrite all of data at offset, which may take more than one call."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def write_qds(dataset, plan: AllocationPlan, path) -> StorageReport:
    """Quantize per the plan and write the container atomically. dataset
    is a Dataset or a dataset.DatasetRows; with two row chunks or more, a
    forked child encodes the second half of them where parallel.started
    forks (see the module docstring)."""
    n = len(dataset.labels)
    if len(plan) != n:
        raise ValueError(f"plan covers {len(plan)} samples, dataset has {n}")
    widths = np.asarray(plan.assignments, dtype=np.int64)
    if not is_valid_bit_width(widths).all():
        raise ValueError("plan has an invalid bit width")
    header = _HEADER.pack(
        QDS_MAGIC, QDS_VERSION, n,
        dataset.shape.height, dataset.shape.width, dataset.shape.channels,
        dataset.num_classes, FLAG_LABELS,
    )
    elems = dataset.shape.element_count
    sizes = np.array(_record_sizes(elems))[widths]
    starts = HEADER_BYTES + np.cumsum(sizes) - sizes  # each record's file offset
    chunks = row_chunks(n, elems)
    half = len(chunks) // 2

    def encode(slices, fd: int) -> bytes:
        """Encode the records of slices, consecutive row chunks, writing
        each chunk's records at their offset in fd; returns no bytes."""
        for chunk, values in dataset.chunks(slices):
            w, size = widths[chunk], sizes[chunk]
            at = np.cumsum(size) - size  # record starts within this chunk
            out = np.zeros(int(size.sum()), dtype=np.uint8)
            out[at] = w
            _scatter(out, at + 1, dataset.labels[chunk].astype("<u4"))
            for bits in np.unique(w[w > 0]).tolist():
                rows = np.flatnonzero(w == bits)
                codes, scales = quantize_rows(values[rows], bits)
                _scatter(out, at[rows] + _SCALE_AT, scales.astype("<f4"))
                _scatter(out, at[rows] + _PAYLOAD_AT, pack_code_rows(codes, bits))
            _write_at(fd, out, int(starts[chunk.start]))
        return b""

    def write(tmp):
        with open(tmp, "wb") as fh:
            fd = fh.fileno()
            _write_at(fd, header, 0)  # before a fork, so only the parent writes it
            with parallel.started(lambda: encode(chunks[half:], fd), half > 0) as result:
                encode(chunks[:half], fd)
                result()

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
        sizes = _record_sizes(self.header.shape.element_count)
        offsets, pos = [], HEADER_BYTES
        for i in range(count):
            if pos >= len(raw):
                raise QdsFormatError(f"truncated file: record {i}")
            size = sizes[raw[pos]] if raw[pos] <= MAX_BIT_WIDTH else 0
            if not size:
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
                bad = np.flatnonzero(~((scales > 0) & (largest <= F32_MAX)))
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
