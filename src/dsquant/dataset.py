"""Row sources: ingestion from external formats, the stage container and
synthetic data.

External formats:

* CIFAR binary batches: each record is 1 label byte (10-class) or
  2 label bytes (100-class, coarse label first and ignored) followed by
  3072 pixel bytes in channel-planar row-major order. Pixel byte v maps
  to v/255.
* Raw pairs: a ``.f32le`` value file (little-endian float32, row-major,
  one flattened sample per row) plus a ``.u32le`` label file
  (little-endian uint32, one per sample).

The single-file stage container written by the CLI (``DSR1``) is a thin
header over the same raw layout. Every stage takes its samples from a
row source (_RowSource): its labels, complete and checked (check_labels)
when it is made, plus one chunk function, which chunks(slices) and
take() (compare's two splits, and every row for score's fit) read
through. A chunk function yields (rows, float32 values) a row chunk at a
time in chunk_buffer views, all finite (RawRows and DatasetRows check
theirs and name the file and record of the first bad row; the others
make finite values), and keeps no state: each call starts afresh, so two
passes, such as the two processes of parallel.halves, never share a file
offset or a random stream. CifarRecords, RawRows and DatasetRows read
fixed-width records (_read_rows) and differ only in where the values and
labels sit, the record dtype and width, the message for a file that
shrank and CIFAR's chunk function, which converts its pixels. Opening
one checks its size (_file_size, which refuses a pipe) and reads every
label. synth_blobs (--synth) generates its rows instead, and
qds.QdsRecords decodes them from a QDS file. write_dataset_file, the one
writer, writes any row source a chunk at a time. The text stage files
(scores, plans, keep-lists) share one codec: write_indexed, read_indexed
and read_table.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import io
import os
import struct
import warnings
from dataclasses import asdict, dataclass

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


def check_labels(labels: np.ndarray, num_classes: int, path) -> None:
    """Reject a label outside [0, num_classes) of the file at path, whose
    record i has labels[i]; the error starts with path."""
    if num_classes < 1:
        raise ValueError(f"{path}: num_classes must be positive")
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        raise ValueError(f"{path}: record {bad[0]}: label {labels[bad[0]]} "
                         f"out of range for {num_classes} classes")


def chunk_buffer(slices, n, width, dtype=np.float32):
    """Yield a (rows, width) dtype view for each of slices, consecutive
    row slices of n rows, of one buffer sized to the first slice (one
    allocated per chunk, glibc hands back and faults in again each time)."""
    if slices:
        buffer = np.empty((min(slices[0].stop, n) - slices[0].start, width), dtype)
        for rows in slices:
            yield buffer[:min(rows.stop, n) - rows.start]


def _read_rows(path, at, n, width, dtype, truncated, slices):
    """Yield (rows, table) for each of slices, consecutive row slices of
    the n-row table of width-element dtype rows that starts at byte at of
    the file at path, which each call opens itself: table is those rows,
    a chunk_buffer view. A short read raises ValueError(truncated)."""
    with open(path, "rb") as fh:
        for rows, table in zip(slices, chunk_buffer(slices, n, width, dtype)):
            fh.seek(at + rows.start * table.strides[0])
            if fh.readinto(table) != table.nbytes:
                raise ValueError(truncated)
            yield rows, table


def _read_finite(path, at, n, width, truncated, slices):
    """_read_rows of float32 value rows, each checked finite: the first
    row that is not is a ValueError naming path and its record."""
    for rows, table in _read_rows(path, at, n, width, "<f4", truncated, slices):
        if not np.isfinite(table).all():
            bad = np.flatnonzero(~np.isfinite(table).all(axis=1))[0]
            raise ValueError(f"{path}: record {rows.start + bad}: "
                             "sample values must be finite")
        yield rows, table


def _file_size(path) -> int:
    """The size of the file at path, found by seeking; a pipe, which
    cannot seek, is an OSError naming path."""
    with open(path, "rb") as fh:
        try:
            return fh.seek(0, os.SEEK_END)
        except io.UnsupportedOperation:
            raise OSError(f"{path}: a row source must be a seekable file, not a pipe") from None


def _read_labels(records, num_classes: int, column: int = 0) -> np.ndarray:
    """The int64 labels at column of the label records that records,
    _read_rows' first arguments, describe, checked for num_classes."""
    n, width = records[2:4]
    labels = np.empty(n, dtype=np.int64)
    for rows, table in _read_rows(*records, row_chunks(n, width)):
        labels[rows] = table[:, column]
    check_labels(labels, num_classes, records[0])
    return labels


class _RowSource:
    """The row source of the module docstring: labels, checked by its
    maker, plus chunks, its chunk function of a list of slices."""

    def __init__(self, shape, num_classes, labels, chunks):
        labels.setflags(write=False)
        self.shape, self.num_classes, self.labels = shape, num_classes, labels
        self._chunks = chunks

    def chunks(self, slices=None):
        """Yield (rows, values) for each of slices, consecutive row_chunks
        slices (default: all of them) from the first slice's row on: values
        is those rows as float32, a view that the next chunk overwrites."""
        if slices is None:
            slices = row_chunks(self.labels.size, self.shape.element_count)
        return self._chunks(slices)

    def take(self, indices: np.ndarray, dtype) -> np.ndarray:
        """The rows at indices, strictly ascending in [0, n), as one dtype
        matrix, from one pass over every value row (so a bad value anywhere
        is an error); a chunk whose rows are all wanted is copied whole."""
        n = self.labels.size
        if (np.diff(indices, prepend=-1) <= 0).any() or (indices[-1:] >= n).any():
            raise ValueError(f"row indices must be strictly ascending in [0, {n})")
        out = np.empty((indices.size, self.shape.element_count), dtype)
        for rows, values in self.chunks():
            lo, hi = np.searchsorted(indices, (rows.start, rows.stop))
            out[lo:hi] = values if hi - lo == len(values) else values[indices[lo:hi] - rows.start]
        return out


class CifarRecords(_RowSource):
    """A CIFAR-10/100 binary batch at path, read a row chunk at a time.
    Pixel bytes map to [0, 1] by division by 255 (0 -> 0.0, 255 -> 1.0
    exactly); record order is preserved."""

    shape = SampleShape(CIFAR_HEIGHT, CIFAR_WIDTH, CIFAR_CHANNELS)

    def __init__(self, path, num_classes: int):
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        label_bytes = 2 if num_classes == 100 else 1
        record_size, size = label_bytes + CIFAR_PIXEL_BYTES, _file_size(path)
        if size % record_size != 0:
            raise ValueError(f"{path}: truncated CIFAR stream: {size} bytes is not a "
                             f"multiple of the {record_size}-byte record size")
        records = (path, 0, size // record_size, record_size, np.uint8,
                   f"{path}: truncated CIFAR stream: the file shrank while read")
        labels = _read_labels(records, num_classes, label_bytes - 1)

        def chunks(slices):
            """The pixels of the records of slices as float32."""
            pixels = chunk_buffer(slices, records[2], CIFAR_PIXEL_BYTES)
            for (rows, table), values in zip(_read_rows(*records, slices), pixels):
                # bitwise table.astype(np.float32) / np.float32(255)
                np.copyto(values, table[:, -CIFAR_PIXEL_BYTES:], casting="unsafe")
                values /= np.float32(255)
                yield rows, values

        super().__init__(self.shape, num_classes, labels, chunks)


class RawRows(_RowSource):
    """A .f32le value file plus .u32le label file, at values_path and
    labels_path."""

    def __init__(self, values_path, labels_path, shape: SampleShape, num_classes: int):
        row_bytes, size = shape.element_count * 4, _file_size(values_path)
        if size % row_bytes != 0:
            raise ValueError(f"{values_path}: value stream of {size} bytes is not a multiple "
                             f"of the {row_bytes}-byte sample size")
        n, label_size = size // row_bytes, _file_size(labels_path)
        if label_size != n * 4:
            raise ValueError(f"{labels_path}: label stream is {label_size} bytes, "
                             f"expected {n * 4} for {n} samples")
        labels = _read_labels((labels_path, 0, n, 1, "<u4", f"{labels_path}: truncated "
                               "label stream: the file shrank while read"), num_classes)
        super().__init__(shape, num_classes, labels, functools.partial(
            _read_finite, values_path, 0, n, shape.element_count,
            f"{values_path}: truncated value stream: the file shrank while read"))


def synth_blobs(num_classes: int, dim: int, per_class: int,
                spread: float, seed: int) -> _RowSource:
    """Gaussian class blobs with pairwise-distinct means, shape 1x1xdim,
    generated a row chunk at a time: deterministic in seed, values
    clipped to [-8, 8], samples ordered class-major."""
    for name, value, valid in (("num_classes", num_classes, num_classes >= 2),
                               ("dim", dim, dim >= 1), ("per_class", per_class, per_class >= 1),
                               ("spread", spread, 0 < spread < np.inf),
                               ("seed", seed, seed >= 0)):
        if not valid:
            raise ValueError(f"invalid synthetic dataset sizes: {name} {value}")
    n = num_classes * per_class

    def chunks(slices):
        """The rows of slices from one seeded stream: the class means, then
        one normal draw per value in row order; the draws of the rows before
        the first slice are made and discarded a whole slice at a time."""
        if not slices:
            return
        rng = np.random.default_rng(seed)
        means = rng.uniform(-4.0, 4.0, size=(num_classes, dim))
        skip, step = slices[0].start * dim, (slices[0].stop - slices[0].start) * dim
        for done in range(0, skip, step):
            rng.standard_normal(min(step, skip - done))
        for rows, draws, values in zip(slices, chunk_buffer(slices, n, dim, np.float64),
                                       chunk_buffer(slices, n, dim)):
            stop = rows.start + len(values)
            # one class segment at a time: the same draws and arithmetic as
            # means[c] + spread * normals, clipped, then cast on assignment
            for c in range(rows.start // per_class, (stop - 1) // per_class + 1):
                segment = slice(max(rows.start, c * per_class) - rows.start,
                                min(stop, (c + 1) * per_class) - rows.start)
                block = draws[segment]
                rng.standard_normal(out=block)
                block *= spread
                block += means[c]
                values[segment] = np.clip(block, -8.0, 8.0, out=block)
            yield rows, values

    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return _RowSource(SampleShape(1, 1, dim), num_classes, labels, chunks)


@contextlib.contextmanager
def write_atomically(path):
    """Create path.tmp and yield it, so an unwritable path fails before
    the block's work; rename it to path when the block ends. The temp
    file is removed if the block or the rename fails, and an OSError
    about it names path instead. Atomic covers interrupts and concurrent
    readers, not power loss: nothing is fsynced, so the blocks of a
    preallocated file (preallocate) can read as zeros until written back,
    which the readers' magic check catches in a header but not in a body.
    ext4's rename flush no longer narrows that window for such a file."""
    tmp = f"{path}.tmp"
    try:
        open(tmp, "wb").close()
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp and exc.filename2 is None:
            exc.filename = path  # not the rename's error, which names both paths
        raise


def preallocate(fh, size: int) -> None:
    """Allocate the file open as fh its final size, size bytes, before
    any is written: a disk or file size limit too small for it fails now
    (an OSError naming fh.name), and renaming it over another file skips
    ext4's flush of delayed-allocation blocks. A filesystem that cannot
    preallocate is written as without; where one has no fallocate, glibc
    emulates it by writing one byte per block."""
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fh.fileno(), 0, size)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS):
            raise OSError(exc.errno, exc.strerror, fh.name) from None


def write_indexed(path, values, spec: str, header: str = None) -> None:
    """One `index<TAB>value` line per entry, each value formatted with
    spec (".9g" or "d"), after an optional header line. The lines are one
    % format over the interleaved index and value fields."""
    values = np.asarray(values).tolist()
    fields = [None] * (2 * len(values))
    fields[::2], fields[1::2] = range(len(values)), values
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"{header}\n")
        fh.write((f"%d\t%{spec}\n" * len(values)) % tuple(fields))


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
    values a row chunk at a time, then the labels. The file gets its full
    size before the first row is read (preallocate), so a disk that
    cannot hold it fails before the work, and a source that yields more or
    fewer bytes than its labels call for is a RuntimeError."""
    n, shape = source.labels.size, source.shape
    for name, value in (*asdict(shape).items(), ("class count", source.num_classes)):
        if value >= 1 << 32:
            raise ValueError(f"{name} {value} does not fit the dataset header's u32 field")
    header = _DATASET_HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, n,
        shape.height, shape.width, shape.channels, source.num_classes,
    )
    size = _DATASET_HEADER.size + n * (shape.element_count + 1) * 4
    with open(path, "wb") as fh:
        preallocate(fh, size)
        fh.write(header)
        for _, values in source.chunks(row_chunks(n, shape.element_count)):
            fh.write(np.ascontiguousarray(values, "<f4"))
        fh.write(np.ascontiguousarray(source.labels, "<u4"))
        if fh.tell() != size:
            raise RuntimeError(f"wrote {fh.tell()} bytes of a {size}-byte dataset file")


def _read_dataset_header(path):
    """(sample count, shape, class count) of the DSR1 file at path, after
    checking its magic, version, shape and body size."""
    size = _file_size(path)
    with open(path, "rb") as fh:
        raw = fh.read(_DATASET_HEADER.size)
    if len(raw) != _DATASET_HEADER.size:
        raise ValueError(f"{path}: truncated dataset header")
    magic, version, n, h, w, c, num_classes = _DATASET_HEADER.unpack(raw)
    if magic != DATASET_MAGIC:
        raise ValueError(f"{path}: not a DSR1 dataset file")
    if version != DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    try:
        shape = SampleShape(h, w, c)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    body = size - _DATASET_HEADER.size
    expected = n * (shape.element_count + 1) * 4
    if body != expected:
        problem = "truncated" if body < expected else "trailing bytes after"
        raise ValueError(f"{path}: {problem} dataset body")
    return n, shape, num_classes


class DatasetRows(_RowSource):
    """A DSR1 stage container read by rows, the one body reader: quantize
    and score's scoring pass stream it, compare and score's fit gather
    rows of it with take()."""

    def __init__(self, path):
        n, shape, num_classes = _read_dataset_header(path)
        at, dim = _DATASET_HEADER.size, shape.element_count
        truncated = f"{path}: truncated dataset body"
        labels = _read_labels((path, at + n * dim * 4, n, 1, "<u4", truncated), num_classes)
        super().__init__(shape, num_classes, labels,
                         functools.partial(_read_finite, path, at, n, dim, truncated))
