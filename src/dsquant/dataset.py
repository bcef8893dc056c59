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
header over the same raw layout; see write_dataset_file. The text stage
files (scores, plans, keep-lists) share one codec: write_indexed,
read_indexed and read_table.
"""

from __future__ import annotations

import contextlib
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

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
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != self.shape.element_count:
            raise ValueError(
                f"values must be (N, {self.shape.element_count}), got {values.shape}"
            )
        if labels.shape != (values.shape[0],):
            raise ValueError("labels must be a 1-D array matching values")
        if not np.isfinite(values).all():
            raise ValueError("sample values must be finite")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.shape[0]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.shape, self.num_classes,
                       self.values[indices], self.labels[indices])


def ingest_cifar_binary(data: bytes, num_classes: int) -> Dataset:
    """Decode a CIFAR-10/100 binary batch into a Dataset.

    Pixel bytes map to [0, 1] by division by 255 (0 -> 0.0, 255 -> 1.0
    exactly); record order is preserved.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    label_bytes = 2 if num_classes == 100 else 1
    record_size = label_bytes + CIFAR_PIXEL_BYTES
    if len(data) % record_size != 0:
        raise ValueError(
            f"truncated CIFAR stream: {len(data)} bytes is not a multiple "
            f"of the {record_size}-byte record size"
        )
    n = len(data) // record_size
    shape = SampleShape(CIFAR_HEIGHT, CIFAR_WIDTH, CIFAR_CHANNELS)
    records = np.frombuffer(data, dtype=np.uint8).reshape(n, record_size)
    labels = records[:, label_bytes - 1].astype(np.int64)
    if n and labels.max() >= num_classes:
        raise ValueError(f"label {labels.max()} out of range for {num_classes} classes")
    values = records[:, label_bytes:].astype(np.float32) / np.float32(255)
    return Dataset(shape, num_classes, values, labels)


def ingest_raw(values_data: bytes, labels_data: bytes,
               shape: SampleShape, num_classes: int) -> Dataset:
    """Decode a .f32le value stream plus .u32le label stream."""
    row_bytes = shape.element_count * 4
    if len(values_data) % row_bytes != 0:
        raise ValueError("value stream length is not a multiple of the sample size")
    n = len(values_data) // row_bytes
    if len(labels_data) != n * 4:
        raise ValueError(
            f"label stream holds {len(labels_data) // 4} entries, expected {n}"
        )
    values = np.frombuffer(values_data, dtype="<f4").reshape(n, shape.element_count)
    labels = np.frombuffer(labels_data, dtype="<u4").astype(np.int64)
    return Dataset(shape, num_classes, values, labels)


def synth_blobs(num_classes: int, dim: int, per_class: int,
                spread: float, seed: int) -> Dataset:
    """Gaussian class blobs with pairwise-distinct means, shape 1x1xdim.

    Deterministic in seed; values clipped to [-8, 8]. Samples are
    ordered class-major.
    """
    if num_classes < 2 or dim < 1 or per_class < 1 or spread <= 0:
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


def write_dataset_file(dataset: Dataset, path) -> None:
    """Write the DSR1 stage container straight from the arrays."""
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, len(dataset),
        dataset.shape.height, dataset.shape.width, dataset.shape.channels,
        dataset.num_classes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(dataset.values, "<f4"))
        fh.write(np.ascontiguousarray(dataset.labels, "<u4"))


def read_dataset_file(path) -> Dataset:
    """Read a DSR1 stage container."""
    with open(path, "rb") as fh:
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
        values_data = fh.read(n * shape.element_count * 4)
        labels_data = fh.read(n * 4)
    return ingest_raw(values_data, labels_data, shape, num_classes)
