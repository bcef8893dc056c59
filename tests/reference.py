"""Reference code shared by the tests: an independent bit encoder and
decoder, the row quantizer as first written, the half-noise fixture of
the acceptance gate, the hostile copies of valid stage files that the
file property tests read, read_rows, which reads a dataset file by
rows, and the whole-array ingest decoders and dataset file writer that
the streamed ingest must match byte for byte. No pipeline stage uses them, so they live here rather than in the
dsquant package."""

import struct

import numpy as np
from hypothesis import strategies as st

from dsquant.dataset import Dataset, DatasetRows, SampleShape


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


def synth_half_noise(num_classes: int, dim: int, per_class: int,
                     spread: float, seed: int,
                     noise_amplitude: float = 4.0,
                     spike_amplitude: float = 8.0,
                     mean_scale: float = 0.3) -> Dataset:
    """Signal samples with precision-hungry class structure, followed by
    an equal number of pure-noise samples.

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
    labels = np.concatenate([labels_signal, labels_noise])
    return Dataset(SampleShape(1, 1, dim), num_classes, values, labels)


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


def reference_ingest_cifar(data: bytes, num_classes: int) -> Dataset:
    """ingest_cifar_binary as first written, on whole arrays: the records,
    their labels, and one float32 cast of every pixel divided by 255."""
    label_bytes = 2 if num_classes == 100 else 1
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, label_bytes + 3072)
    values = records[:, label_bytes:].astype(np.float32) / np.float32(255)
    return Dataset(SampleShape(32, 32, 3), num_classes, values,
                   records[:, label_bytes - 1].astype(np.int64))


def reference_ingest_raw(values_data: bytes, labels_data: bytes,
                         shape: SampleShape, num_classes: int) -> Dataset:
    """ingest_raw as first written, on whole arrays."""
    values = np.frombuffer(values_data, dtype="<f4").reshape(-1, shape.element_count)
    labels = np.frombuffer(labels_data, dtype="<u4").astype(np.int64)
    return Dataset(shape, num_classes, values, labels)


def reference_dataset_bytes(dataset: Dataset) -> bytes:
    """The DSR1 file write_dataset_file wrote from whole arrays: the
    30-byte header, every value, then every label."""
    shape = dataset.shape
    header = struct.pack("<4sHQIIII", b"DSR1", 1, len(dataset),
                         shape.height, shape.width, shape.channels, dataset.num_classes)
    return (header + np.ascontiguousarray(dataset.values, "<f4").tobytes()
            + np.ascontiguousarray(dataset.labels, "<u4").tobytes())
