"""In-process traced replay of the CLI stages, and the per-layer metrics.

Each stage is replayed by calling ``dsquant.cli.main`` with the stage's
arguments, so the replay goes through exactly the public functions the
CLI calls. While it runs, the public functions named in TRACED are
wrapped wherever a dsquant module binds them, and each call records a
span (name, start, end, parent). Spans are kept in memory and written
out with the result.

The bit-kernel microbenchmark (the per-width table of
benchmarks/bench_bitpack.py) and the quantizer per-call timings run here
too, so one command prints every per-layer number.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

# Public functions timed by the replay, by module. A name the program no
# longer has is skipped, so the trace follows whatever the CLI calls.
TRACED = {
    "dataset": ("ingest_cifar_binary", "ingest_raw", "synth_blobs",
                "write_dataset_file", "read_dataset_file"),
    "sensitivity": ("score_dataset", "write_scores", "read_scores"),
    "trainer": ("fit_scoring_model", "train", "compare"),
    "allocator": ("allocate", "write_plan", "read_plan"),
    "qds": ("write_qds", "read_qds", "storage_report",
            "materialize_training_set"),
}

KERNEL_WIDTHS = (2, 4, 8, 12, 16)
KERNEL_ELEMENTS = 1_000_000
KERNEL_REPEATS = 5
CALL_SAMPLES = 2000  # per-call timings; the p99 then has 20 beyond it


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, 0.0, parent=parent)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Wrap every TRACED function in every dsquant module that binds it."""
        import dsquant

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dsquant"
                                         or name.startswith("dsquant."))]
        patched = []
        for module_name, functions in TRACED.items():
            module = getattr(dsquant, module_name)
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
        try:
            yield
        finally:
            for m, attr, original in patched:
                setattr(m, attr, original)

    def under(self, span: Span, ancestor_name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == ancestor_name:
                return True
            parent = self.spans[parent].parent
        return False

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of the spans called `name` (optionally only
        those below a span called `under`)."""
        return sum(s.duration for s in self.spans if s.name == name
                   and (under is None or self.under(s, under)))

    def accounting(self, root: Span) -> dict:
        """Self time of a span: its duration minus what its children cover."""
        children = sum(s.duration for s in self.spans if s.parent == root.id)
        return {"span_s": root.duration, "children_s": children,
                "self_s": root.duration - children}

    def as_records(self) -> list:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]


def replay_stage(tracer: Tracer, stage: str, args) -> tuple:
    """Run one CLI stage in-process under a stage span.

    Returns (span, exit_code, stdout)."""
    from dsquant import cli

    out = io.StringIO()
    with tracer.span(f"stage.{stage}") as span, contextlib.redirect_stdout(out):
        code = cli.main(["--porcelain", stage, *args])
    return span, code, out.getvalue()


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_throughput(seed: int) -> tuple:
    """Pack/unpack Me/s per width at 1M elements on the active kernel.

    Returns (metrics, failures). Where the native extension imports, it
    is also checked byte-for-byte against the NumPy fallback."""
    from dsquant import _bitpack_py
    from dsquant import quantizer

    try:
        from dsquant import _bitpack as native
    except ImportError:
        native = None
    active = native if quantizer.USING_NATIVE_KERNEL else _bitpack_py
    rng = np.random.default_rng(seed)
    metrics, failures = {}, []
    for bits in KERNEL_WIDTHS:
        offsets = rng.integers(0, 2 * quantizer.max_code(bits) + 1,
                               size=KERNEL_ELEMENTS).astype(np.uint32)
        payload = bytes(active.pack_offsets(offsets, bits))
        if len(payload) != (KERNEL_ELEMENTS * bits + 7) // 8:
            failures.append(f"kernel: b{bits} payload is {len(payload)} bytes")
        if not np.array_equal(
                active.unpack_offsets(payload, KERNEL_ELEMENTS, bits), offsets):
            failures.append(f"kernel: b{bits} unpack does not invert pack")
        if native is not None and bytes(native.pack_offsets(offsets, bits)) \
                != bytes(_bitpack_py.pack_offsets(offsets, bits)):
            failures.append(f"kernel: b{bits} native and NumPy bytes differ")
        pack_s = _median_time(lambda: active.pack_offsets(offsets, bits),
                              KERNEL_REPEATS)
        unpack_s = _median_time(
            lambda: active.unpack_offsets(payload, KERNEL_ELEMENTS, bits),
            KERNEL_REPEATS)
        metrics[f"quantizer.pack_me_s.b{bits}"] = KERNEL_ELEMENTS / 1e6 / pack_s
        metrics[f"quantizer.unpack_me_s.b{bits}"] = KERNEL_ELEMENTS / 1e6 / unpack_s
    return metrics, failures


def quantizer_calls(values, labels, widths, seed: int) -> dict:
    """quantize_sample over every kept row, and per-call pack/unpack
    latency at the workload's row length and plan widths."""
    from dsquant.quantizer import pack_codes, quantize_sample, unpack_codes

    kept = np.flatnonzero(widths)
    start = time.perf_counter()
    for i in kept:
        quantize_sample(values[i], int(widths[i]), int(labels[i]))
    rows_s = time.perf_counter() - start

    rng = np.random.default_rng(seed)
    sample = rng.choice(kept, size=CALL_SAMPLES, replace=kept.size < CALL_SAMPLES)
    pack_us, unpack_us = [], []
    for i in sample:
        q = quantize_sample(values[i], int(widths[i]), int(labels[i]))
        t0 = time.perf_counter()
        packed = pack_codes(q)
        t1 = time.perf_counter()
        unpack_codes(packed)
        t2 = time.perf_counter()
        pack_us.append((t1 - t0) * 1e6)
        unpack_us.append((t2 - t1) * 1e6)
    pack_q = statistics.quantiles(pack_us, n=100)
    unpack_q = statistics.quantiles(unpack_us, n=100)
    return {
        "quantizer.quantize_rows_s": rows_s,
        "quantizer.pack_call_us.p50": statistics.median(pack_us),
        "quantizer.pack_call_us.p99": pack_q[98],
        "quantizer.unpack_call_us.p50": statistics.median(unpack_us),
        "quantizer.unpack_call_us.p99": unpack_q[98],
    }
