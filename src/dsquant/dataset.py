"""In-memory datasets, ingestion from external formats, and synthetic data.

External formats:

* CIFAR binary batches: each record is 1 label byte (10-class) or
  2 label bytes (100-class, coarse label first and ignored) followed by
  3072 pixel bytes in channel-planar row-major order. Pixel byte v maps
  to v/255.
* Raw pairs: a ``.f32le`` value file (little-endian float32, row-major,
  one flattened sample per row) plus a ``.u32le`` label file
  (little-endian uint32, one per sample).

The single-file stage container written by the CLI (``DSR1``) is a thin
header over the same raw layout; see write_dataset_file, the one writer,
which takes its values a row chunk at a time from any row source (an
object with shape, num_classes, labels and chunks(slices)): a Dataset, a
CifarRecords or RawRows reading ingest's input files, or a DatasetRows.
So ingest holds one row chunk of its source, except for --synth, whose
synth_blobs builds the Dataset whole. The container has one header
parser and one body reader, DatasetRows, which reads it a row chunk at a
time: quantize streams it, and its take() gathers ascending rows into
one matrix in one pass (compare's two splits, and every row for score's
read_dataset_file). The text stage files (scores, plans, keep-lists)
share one codec: write_indexed, read_indexed and read_table.
"""

from __future__ import annotations

import contextlib
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .quantizer import row_chunks

CIFAR_PIXEL_BYTES = 3072
CIFAR_HEIGHT = 32
CIFAR_WIDTH = 32
CIFAR_CHANNELS = 3

DATASET_MAGIC = b"DSR1"
DATASET_VERSION = 1
_DATASET_HEADER = struct.Struct("<4sHQIIII")


@dataclass(frozen=True)
class SampleShape:
    height: int
    width: int
    channels: int

    def __post_init__(self):
        for name in ("height", "width", "channels"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    @property
    def element_count(self) -> int:
        return self.height * self.width * self.channels

    def __str__(self) -> str:
        return f"{self.height}x{self.width}x{self.channels}"


def _check_finite(values: np.ndarray) -> None:
    """Reject a non-finite value in the 2-D values, checked a row chunk
    at a time, so the mask is at most one chunk's."""
    for rows in row_chunks(*values.shape):
        if not np.isfinite(values[rows]).all():
            raise ValueError("sample values must be finite")


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of flattened samples.

    values: (N, element_count) float32, finite.
    labels: (N,) int64, each in [0, num_classes).
    The row index is the canonical sample identity.
    """

    shape: SampleShape
    num_classes: int
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != self.shape.element_count:
            raise ValueError(
                f"values must be (N, {self.shape.element_count}), got {values.shape}"
            )
        if labels.shape != (values.shape[0],):
            raise ValueError("labels must be a 1-D array matching values")
        _check_finite(values)
        _check_labels(labels, self.num_classes)
        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.shape[0]

    def chunks(self, slices):
        """(rows, values) for each row slice, as DatasetRows.chunks gives them."""
        for rows in slices:
            yield rows, self.values[rows]


def _read_rows(fh, at, slices, n, width, dtype, truncated):
    """Yield (rows, table) for each of slices, consecutive row slices of
    the n-row table of width-element dtype rows that starts at byte at of
    fh: table is those rows, read into one buffer that the next slice
    overwrites. A short read raises ValueError(truncated)."""
    if not slices:
        return
    buffer = np.empty((min(slices[0].stop, n) - slices[0].start, width), dtype)
    fh.seek(at + slices[0].start * width * buffer.itemsize)
    for rows in slices:
        table = buffer[:min(rows.stop, n) - rows.start]
        if fh.readinto(table) != table.nbytes:
            raise ValueError(truncated)
        yield rows, table


class CifarRecords:
    """A CIFAR-10/100 binary batch, read from fh (a seekable binary file)
    a row chunk at a time. Pixel bytes map to [0, 1] by division by 255
    (0 -> 0.0, 255 -> 1.0 exactly); record order is preserved. labels
    holds a record's label once chunks() has read it."""

    shape = SampleShape(CIFAR_HEIGHT, CIFAR_WIDTH, CIFAR_CHANNELS)

    def __init__(self, fh, num_classes: int):
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self._fh, self.num_classes = fh, num_classes
        self._label_bytes = 2 if num_classes == 100 else 1
        record_size = self._label_bytes + CIFAR_PIXEL_BYTES
        size = fh.seek(0, os.SEEK_END)
        if size % record_size != 0:
            raise ValueError(
                f"truncated CIFAR stream: {size} bytes is not a multiple "
                f"of the {record_size}-byte record size"
            )
        self.labels = np.zeros(size // record_size, dtype=np.int64)

    def chunks(self, slices):
        """(rows, values) for each of slices, as DatasetRows.chunks gives
        them; a label out of range names its record."""
        n, label_at = self.labels.size, self._label_bytes - 1
        values = None
        for rows, records in _read_rows(self._fh, 0, slices, n,
                                        label_at + 1 + CIFAR_PIXEL_BYTES, np.uint8,
                                        "truncated CIFAR stream: the file shrank while read"):
            labels = records[:, label_at]
            bad = np.flatnonzero(labels >= self.num_classes)
            if bad.size:
                raise ValueError(f"record {rows.start + bad[0]}: label {labels[bad[0]]} "
                                 f"out of range for {self.num_classes} classes")
            self.labels[rows] = labels
            if values is None:
                values = np.empty((len(records), CIFAR_PIXEL_BYTES), dtype=np.float32)
            chunk = values[:len(records)]
            # bitwise records.astype(np.float32) / np.float32(255)
            np.copyto(chunk, records[:, label_at + 1:], casting="unsafe")
            chunk /= np.float32(255)
            yield rows, chunk


class RawRows:
    """A .f32le value file plus .u32le label file, from values_fh and
    labels_fh (seekable binary files). Opening it reads and checks the
    labels; chunks() then reads the values a row chunk at a time."""

    def __init__(self, values_fh, labels_fh, shape: SampleShape, num_classes: int):
        row_bytes, size = shape.element_count * 4, values_fh.seek(0, os.SEEK_END)
        if size % row_bytes != 0:
            raise ValueError("value stream length is not a multiple of the sample size")
        n, label_size = size // row_bytes, labels_fh.seek(0, os.SEEK_END)
        if label_size != n * 4:
            raise ValueError(f"label stream holds {label_size // 4} entries, expected {n}")
        labels_fh.seek(0)
        data = labels_fh.read(label_size)
        if len(data) != label_size:
            raise ValueError("truncated label stream: the file shrank while read")
        labels = np.frombuffer(data, dtype="<u4").astype(np.int64)
        _check_labels(labels, num_classes)
        self._fh, self.shape, self.num_classes = values_fh, shape, num_classes
        self.labels = labels

    def chunks(self, slices):
        """(rows, values) for each of slices, as DatasetRows.chunks gives them."""
        for rows, values in _read_rows(self._fh, 0, slices, self.labels.size,
                                       self.shape.element_count, "<f4",
                                       "truncated value stream: the file shrank while read"):
            _check_finite(values)
            yield rows, values


def synth_blobs(num_classes: int, dim: int, per_class: int,
                spread: float, seed: int) -> Dataset:
    """Gaussian class blobs with pairwise-distinct means, shape 1x1xdim.

    Deterministic in seed; values clipped to [-8, 8]. Samples are
    ordered class-major.
    """
    if num_classes < 2 or dim < 1 or per_class < 1 or not 0 < spread < np.inf:
        raise ValueError("invalid synthetic dataset sizes")
    rng = np.random.default_rng(seed)
    means = rng.uniform(-4.0, 4.0, size=(num_classes, dim))
    values = np.empty((num_classes * per_class, dim), dtype=np.float32)
    # one float64 class block at a time: the same draws and arithmetic as
    # means[c] + spread * normals, clipped, then cast on assignment
    for c, block in enumerate(np.split(values, num_classes)):
        draws = rng.standard_normal((per_class, dim))
        draws *= spread
        draws += means[c]
        block[...] = np.clip(draws, -8.0, 8.0, out=draws)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(SampleShape(1, 1, dim), num_classes, values, labels)


def write_atomically(path, writer) -> None:
    """Run writer against a temp path, then rename it into place; the
    temp file is removed if the writer fails."""
    tmp = f"{path}.tmp"
    try:
        writer(tmp)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def write_indexed(path, values, spec: str, header: str = None) -> None:
    """One `index<TAB>value` line per entry, each value formatted with
    spec (".9g" or "d"), after an optional header line."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"{header}\n")
        fh.writelines(f"{i}\t{v:{spec}}\n" for i, v in enumerate(np.asarray(values).tolist()))


def read_table(path, columns, header_fields: int = 0):
    """Parse tab-separated lines, one field per (name, dtype) column, in
    one np.loadtxt call, after a header line of header_fields tokens if
    header_fields is set. Empty lines are skipped and an integer field
    takes no fraction. Returns (header tokens, structured rows); a parse
    error is a one-line ValueError naming path."""
    with open(path) as fh, warnings.catch_warnings():
        # loadtxt warns on an empty file, which is just no rows; NumPy < 2
        # warns instead of failing on an integer field written "1.0"
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            header = fh.readline().split() if header_fields else []
            rows = np.loadtxt(fh, dtype=columns, delimiter="\t", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if len(header) != header_fields:
        raise ValueError(f"{path}: malformed header")
    return header, rows


def read_indexed(path, dtype, header_fields: int = 0):
    """Inverse of write_indexed: (header tokens, value column), where the
    indices must be exactly 0..N-1 in order."""
    header, rows = read_table(path, [("index", np.int64), ("value", dtype)], header_fields)
    wrong = np.flatnonzero(rows["index"] != np.arange(rows.size))
    if wrong.size:
        raise ValueError(f"{path}: indices must be 0..N-1 in order, "
                         f"entry {wrong[0]} has index {rows['index'][wrong[0]]}")
    return header, np.ascontiguousarray(rows["value"])


def write_dataset_file(source, path) -> None:
    """Write the DSR1 stage container from a row source: the header, the
    values a row chunk at a time, then the labels, which a streamed
    source has filled in by then."""
    n, shape = source.labels.size, source.shape
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, n,
        shape.height, shape.width, shape.channels, source.num_classes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for _, values in source.chunks(row_chunks(n, shape.element_count)):
            fh.write(np.ascontiguousarray(values, "<f4"))
        fh.write(np.ascontiguousarray(source.labels, "<u4"))


def _read_dataset_header(fh, path):
    """(sample count, shape, class count) of the DSR1 file open at fh,
    after checking its magic, version, shape and body size; fh is left at
    the first value."""
    raw = fh.read(_DATASET_HEADER.size)
    if len(raw) != _DATASET_HEADER.size:
        raise ValueError(f"{path}: truncated dataset header")
    magic, version, n, h, w, c, num_classes = _DATASET_HEADER.unpack(raw)
    if magic != DATASET_MAGIC:
        raise ValueError(f"{path}: not a DSR1 dataset file")
    if version != DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    shape = SampleShape(h, w, c)
    body = os.fstat(fh.fileno()).st_size - _DATASET_HEADER.size
    expected = n * (shape.element_count + 1) * 4
    if body != expected:
        problem = "truncated" if body < expected else "trailing bytes after"
        raise ValueError(f"{path}: {problem} dataset body")
    return n, shape, num_classes


def read_dataset_file(path) -> Dataset:
    """Read a DSR1 stage container whole (for score): every row, through
    DatasetRows.take."""
    rows = DatasetRows(path)
    values = rows.take(np.arange(rows.labels.size), np.float32)
    return Dataset(rows.shape, rows.num_classes, values, rows.labels)


class DatasetRows:
    """A DSR1 stage container read by rows, the one body reader: quantize
    streams it, compare and read_dataset_file gather rows of it with
    take(). Opening it reads and checks the header, the body size and the
    labels; chunks() then reads the values a row chunk at a time, so no
    more than one chunk of them is ever held."""

    def __init__(self, path):
        self._path = path
        with open(path, "rb") as fh:
            n, self.shape, self.num_classes = _read_dataset_header(fh, path)
            fh.seek(n * self.shape.element_count * 4, os.SEEK_CUR)
            data = fh.read(n * 4)
        if len(data) != n * 4:  # the file shrank after its size was checked
            raise ValueError(f"{path}: truncated dataset body")
        labels = np.frombuffer(data, dtype="<u4").astype(np.int64)
        _check_labels(labels, self.num_classes)
        labels.setflags(write=False)
        self.labels = labels

    def chunks(self, slices=None):
        """Yield (rows, values) for each of slices, consecutive
        quantizer.row_chunks slices (default: all of them): values is
        those rows as a float32 array, checked finite and read into one
        buffer that the next chunk overwrites. Reading starts at the
        first slice's row."""
        n, dim = self.labels.size, self.shape.element_count
        slices = row_chunks(n, dim) if slices is None else slices
        with open(self._path, "rb") as fh:
            for rows, values in _read_rows(fh, _DATASET_HEADER.size, slices, n, dim, "<f4",
                                           f"{self._path}: truncated dataset body"):
                _check_finite(values)
                yield rows, values

    def take(self, indices: np.ndarray, dtype) -> np.ndarray:
        """The rows at indices, strictly ascending, as one dtype matrix,
        from one pass over every value row a row chunk at a time, so a
        non-finite value anywhere in the file is an error. A chunk whose
        rows are all wanted is copied whole."""
        out = np.empty((indices.size, self.shape.element_count), dtype)
        for rows, values in self.chunks():
            lo, hi = np.searchsorted(indices, (rows.start, rows.stop))
            out[lo:hi] = values if hi - lo == len(values) else values[indices[lo:hi] - rows.start]
        return out
