"""Seeded workload inputs for the pipeline benchmark.

Each workload writes its source file(s) into a work directory and says
how to ingest and allocate them. The program only ever sees these
generated files; the expected labels and values are kept here so the
benchmark can check what `ingest` produced.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CIFAR_PIXELS = 3072


@dataclass(frozen=True)
class Source:
    """Generated input: the ingest arguments and what ingest must produce."""

    ingest_args: list
    num_classes: int
    elements: int
    labels: np.ndarray
    values: np.ndarray | None  # None when only the program can derive them


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    records: int
    bits: tuple  # allocate --bits; groups are equal shares
    # Fail the run when the data is too easy or too hard to say anything
    # about quantization (all-zero scores, chance or perfect accuracy).
    guard_degenerate: bool

    @property
    def allocate_args(self) -> list:
        return ["--bits", ",".join(map(str, self.bits))]

    @property
    def group_fractions(self) -> tuple:
        return tuple(1.0 / len(self.bits) for _ in self.bits)

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])

    def make_source(self, seed: int, workdir: Path, scale: float) -> Source:
        n = max(10, int(round(self.records * scale / 10)) * 10)
        return _GENERATORS[self.name](self.rng(seed), workdir, n)


def _balanced_labels(rng, n: int, classes: int) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(classes), n // classes))


def _small_records(rng, workdir: Path, n: int) -> Source:
    spread = rng.uniform(1.0, 3.0)
    synth_seed = int(rng.integers(0, 2**31))
    args = ["--synth", f"10,64,{n},{spread:.3f}", "--seed", str(synth_seed)]
    labels = np.repeat(np.arange(10), n // 10)
    return Source(args, 10, 64, labels, None)


def _cifar_batch(rng, workdir: Path, n: int) -> Source:
    # A per-class template image plus noise, stored as uint8 pixels. The
    # class signal is weak enough that a linear model is far from both
    # chance and perfect accuracy on a held-out split.
    labels = _balanced_labels(rng, n, 10)
    templates = rng.uniform(0.0, 255.0, size=(10, CIFAR_PIXELS))
    pixels = np.empty((n, CIFAR_PIXELS), dtype=np.uint8)
    for start in range(0, n, 1000):
        rows = labels[start:start + 1000]
        noise = rng.normal(0.0, 64.0, size=(rows.size, CIFAR_PIXELS))
        image = 128.0 + 0.04 * (templates[rows] - 128.0) + noise
        pixels[start:start + rows.size] = np.clip(np.rint(image), 0, 255)
    records = np.empty((n, 1 + CIFAR_PIXELS), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels
    path = workdir / "data_batch.bin"
    path.write_bytes(records.tobytes())
    values = pixels.astype(np.float32) / np.float32(255)
    return Source(["--cifar", str(path), "--num-classes", "10"],
                  10, CIFAR_PIXELS, labels, values)


_GENERATORS = {
    "small_records": _small_records,
    "cifar_batch": _cifar_batch,
}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "small_records",
            "50k records of 64 elements: per-record Python overhead dominates "
            "scoring, QDS encode/decode and the SGD batch loop",
            50_000, (8, 4), guard_degenerate=False),
        Workload(
            "cifar_batch",
            "10k CIFAR-10 records of 3072 bytes: bytes dominate, so kernel "
            "throughput, BLAS-bound training and peak RSS show",
            10_000, (8, 4, 0), guard_degenerate=True),
    )
}
