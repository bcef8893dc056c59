"""Reference code shared by the tests: an independent bit encoder and
decoder, the row quantizer and score's probe as first written, rows of
ties and signed zeros to test both on, the half-noise fixture of the
acceptance gate, the hostile copies of valid stage files that the
file property tests read, read_rows and take_rows, which read a dataset
file by rows as compare and score do, every_row, which gathers every row
of a row source, raw_rows, the one way the tests make a row source of
arrays they hold (a .f32le/.u32le pair opened by RawRows), the
whole-body dataset file reader that the row reader must match, the
whole-array ingest decoders and dataset file writer that the streamed
ingest must match byte for byte, and a QDS file's stored records
dequantized one record at a time, which its row source must match. No
pipeline stage uses them, so they live here rather than in the dsquant
package."""

import struct
import tempfile

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsquant.dataset import DatasetRows, RawRows, SampleShape
from dsquant.qds import read_qds


def reference_unpack(payload: bytes, count: int, bit_width: int) -> np.ndarray:
    """Independent MSB-first decoder of signed codes built on one Python
    big integer: code i is payload bits [i*b, (i+1)*b) minus Q."""
    data = int.from_bytes(payload, "big")
    end = len(payload) * 8
    mask, q = (1 << bit_width) - 1, (1 << (bit_width - 1)) - 1
    return np.array([((data >> (end - (i + 1) * bit_width)) & mask) - q
                     for i in range(count)], dtype=np.int64)


def reference_pack(codes, bit_width: int) -> bytes:
    """The encoder reference_unpack inverts, on one Python big integer:
    code i plus Q fills bits [i*b, (i+1)*b), then zero bits pad a byte."""
    q, data = (1 << (bit_width - 1)) - 1, 0
    for code in codes:
        data = (data << bit_width) | (int(code) + q)
    size = (len(codes) * bit_width + 7) // 8
    return (data << (size * 8 - len(codes) * bit_width)).to_bytes(size, "big")


def reference_quantize_rows(values, bit_width: int):
    """quantize_rows as first written, with full-size float64
    temporaries: the float64 cast first, then the abs-max, the scaled
    rows, copysign(floor(|scaled| + 0.5), scaled) and a clip. A scale
    whose scale * q overflows float32 steps down to the float32 below it,
    one less in its bit pattern. The QDS payloads and scales it gives are
    the format's reference."""
    q = (1 << (bit_width - 1)) - 1
    rows = np.asarray(values, dtype=np.float64)
    m = np.abs(rows).max(axis=1, initial=0.0)
    scales = ((m + 1e-12) / q).astype(np.float32)
    over = scales.astype(np.float64) * q > np.finfo(np.float32).max
    scales[over] = (scales[over].view(np.uint32) - 1).view(np.float32)
    scaled = rows / scales.astype(np.float64)[:, None]
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    return np.clip(rounded, -q, q).astype(np.int32), scales


def reference_round_trip_rows(values, bit_width: int) -> np.ndarray:
    """score's probe as it was first written, with no integer codes: the
    float64 rows divided by their scales, rounded half away from zero and
    clipped, given the sign of the value each came from, times the scale
    in float64 and cast to float32. It equals
    dequantize_rows(*quantize_rows(values, bit_width)) except that a zero
    keeps the sign of its value, which an integer code cannot carry."""
    q = (1 << (bit_width - 1)) - 1
    rows = np.asarray(values, dtype=np.float64)
    scales = reference_quantize_rows(values, bit_width)[1].astype(np.float64)[:, None]
    rounded = np.minimum(np.floor(np.abs(rows / scales) + 0.5), q)
    return (np.copysign(rounded, rows) * scales).astype(np.float32)


@st.composite
def rows_with_ties(draw):
    """(values, bit_width, tie): random float32 rows, a row of +-float32
    max, an all-zero row, a row of negative values that round to code 0
    ending in -0.0, and a row of exact .5 ties. The last two rows' max is
    q * 2^e, so their scale is 2^e: each negative value, -f * 2^e with
    f < 0.5, scales to -f, and every tie but the first, (k + 0.5) * 2^e,
    scales to k + 0.5."""
    bit_width = draw(st.integers(2, 16))
    q = (1 << (bit_width - 1)) - 1
    dim = draw(st.integers(2, 12))
    random = draw(arrays(np.float32, st.tuples(st.integers(0, 4), st.just(dim)),
                         elements=st.floats(-1e6, 1e6, width=32)))
    step = 2.0 ** draw(st.integers(-12, 12))
    below = [q] + [-f for f in draw(st.lists(st.floats(0, 0.49), min_size=dim - 2,
                                              max_size=dim - 2))] + [-0.0]
    halves = [q] + [k + 0.5 for k in draw(st.lists(st.integers(0, q - 1),
                                                   min_size=dim - 1, max_size=dim - 1))]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
    tie = np.array(halves) * signs * step
    largest = np.finfo(np.float32).max * np.array(signs)
    values = np.vstack([random, largest, np.zeros((1, dim)), np.array(below) * step,
                        tie]).astype(np.float32)
    return values, bit_width, tie


def synth_half_noise(num_classes: int, dim: int, per_class: int,
                     spread: float, seed: int,
                     noise_amplitude: float = 4.0,
                     spike_amplitude: float = 8.0,
                     mean_scale: float = 0.3):
    """(float32 values, int64 labels) of 1x1xdim signal samples with
    precision-hungry class structure, followed by an equal number of
    pure-noise samples.

    Signal samples carry small-amplitude class means plus a few large
    random spikes, so their quantization range is dominated by the
    spikes and coarse bit-widths bury the class signal. Noise samples
    take lattice values in {-a, 0, a} with uniformly random labels, so
    the quantizer reproduces them almost exactly while they carry no
    class signal. Useful for adaptive-vs-fixed allocation experiments.
    """
    if num_classes < 2 or dim < 2 or per_class < 1 or spread <= 0:
        raise ValueError("invalid synthetic dataset sizes")
    rng = np.random.default_rng(seed)
    n_signal = num_classes * per_class
    means = rng.uniform(-mean_scale, mean_scale, size=(num_classes, dim))
    labels_signal = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    signal = means[labels_signal] + spread * rng.standard_normal((n_signal, dim))
    n_spikes = max(1, dim // 8)
    for row in signal:
        where = rng.choice(dim, size=n_spikes, replace=False)
        row[where] = spike_amplitude * rng.choice([-1.0, 1.0], size=n_spikes)
    noise = noise_amplitude * rng.integers(-1, 2, size=(n_signal, dim)).astype(np.float64)
    labels_noise = rng.integers(0, num_classes, size=n_signal).astype(np.int64)
    values = np.concatenate([signal, noise]).astype(np.float32)
    return values, np.concatenate([labels_signal, labels_noise])


def mutate(data: bytes, other: bytes, how: str, at: int, to: int, bit: int) -> bytes:
    at, to = at % (len(data) + 1), to % (len(other) + 1)
    if how == "truncate":
        return data[:at]
    if how == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]
    return data[:at] + other[to:]  # splice


def hostile_files(kinds) -> dict:
    """Strategies for hostile_copy's arguments: which of the valid files
    named kinds to truncate, bit-flip or splice, and where."""
    return dict(
        kind=st.sampled_from(kinds),
        other=st.sampled_from(kinds),
        how=st.sampled_from(("truncate", "flip", "splice")),
        at=st.integers(0, 1 << 16),
        to=st.integers(0, 1 << 16),
        bit=st.integers(0, 7),
    )


def hostile_copy(valid, kind, other, how, at, to, bit):
    """A mutated copy of the file valid / kind, written next to it."""
    data = mutate((valid / kind).read_bytes(), (valid / other).read_bytes(), how, at, to, bit)
    path = valid / f"hostile-{kind}"
    path.write_bytes(data)
    return path


def read_rows(path):
    """Read a dataset file the way compare does: DatasetRows reads the
    header and labels, then every value row."""
    for _ in DatasetRows(path).chunks():
        pass


def take_rows(path) -> np.ndarray:
    """Read a dataset file the way score's fit does: DatasetRows reads the
    header and labels, then take() gathers every value row."""
    return every_row(DatasetRows(path))


def every_row(source) -> np.ndarray:
    """Every row of a row source, as one float32 matrix."""
    return source.take(np.arange(source.labels.size), np.float32)


def raw_rows(root, values, labels, shape: SampleShape, num_classes: int) -> RawRows:
    """A RawRows over the rows values, labelled labels, written as a
    .f32le/.u32le pair in a new directory under root."""
    directory = tempfile.mkdtemp(dir=root)
    values_path, labels_path = f"{directory}/v.f32le", f"{directory}/l.u32le"
    np.ascontiguousarray(values, "<f4").tofile(values_path)
    np.ascontiguousarray(labels, "<u4").tofile(labels_path)
    return RawRows(values_path, labels_path, shape, num_classes)


def reference_read_dataset(path):
    """The whole-file dataset reader as first written: the header, then
    the whole body in two reads, decoded by np.frombuffer. Returns
    (shape, class count, float32 values, int64 labels)."""
    with open(path, "rb") as fh:
        _, _, n, h, w, c, num_classes = struct.unpack("<4sHQIIII", fh.read(30))
        shape = SampleShape(h, w, c)
        values = np.frombuffer(fh.read(n * shape.element_count * 4), dtype="<f4")
        labels = np.frombuffer(fh.read(n * 4), dtype="<u4").astype(np.int64)
    return shape, num_classes, values.reshape(n, shape.element_count), labels


def reference_ingest_cifar(data: bytes, num_classes: int):
    """The CIFAR decoder as first written, on whole arrays: the records,
    their labels, and one float32 cast of every pixel divided by 255.
    Returns (float32 values, int64 labels)."""
    label_bytes = 2 if num_classes == 100 else 1
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, label_bytes + 3072)
    values = records[:, label_bytes:].astype(np.float32) / np.float32(255)
    return values, records[:, label_bytes - 1].astype(np.int64)


def reference_ingest_raw(values_data: bytes, labels_data: bytes, shape: SampleShape):
    """The .f32le/.u32le decoder as first written, on whole arrays:
    (float32 values, int64 labels)."""
    values = np.frombuffer(values_data, dtype="<f4").reshape(-1, shape.element_count)
    return values, np.frombuffer(labels_data, dtype="<u4").astype(np.int64)


def reference_dataset_bytes(shape: SampleShape, num_classes: int, values, labels) -> bytes:
    """The DSR1 file write_dataset_file wrote from whole arrays: the
    30-byte header, every value, then every label."""
    header = struct.pack("<4sHQIIII", b"DSR1", 1, len(labels),
                         shape.height, shape.width, shape.channels, num_classes)
    return (header + np.ascontiguousarray(values, "<f4").tobytes()
            + np.ascontiguousarray(labels, "<u4").tobytes())


def reference_dequantized(path):
    """The stored records of the QDS file at path, as read_qds returns
    them, each dequantized on its own as scale * codes in float32:
    (their record indices, float32 values, int64 labels)."""
    records, header = read_qds(path)
    kept = [i for i, record in enumerate(records) if record is not None]
    values = np.empty((len(kept), header.shape.element_count), np.float32)
    for row, i in enumerate(kept):
        values[row] = np.float32(records[i].scale) * records[i].codes.astype(np.float32)
    return (np.array(kept, dtype=np.int64), values,
            np.array([records[i].label for i in kept], dtype=np.int64))
