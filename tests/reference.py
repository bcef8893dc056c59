"""Reference code shared by the tests: an independent bit decoder and the
half-noise fixture of the acceptance gate. No pipeline stage uses either,
so they live here rather than in the dsquant package."""

import numpy as np

from dsquant.dataset import Dataset, SampleShape


def reference_unpack(payload: bytes, count: int, bit_width: int) -> np.ndarray:
    """Independent MSB-first decoder of signed codes built on one Python
    big integer: code i is payload bits [i*b, (i+1)*b) minus Q."""
    data = int.from_bytes(payload, "big")
    end = len(payload) * 8
    mask, q = (1 << bit_width) - 1, (1 << (bit_width - 1)) - 1
    return np.array([((data >> (end - (i + 1) * bit_width)) & mask) - q
                     for i in range(count)], dtype=np.int64)


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
