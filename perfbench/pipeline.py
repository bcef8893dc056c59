"""Run the dsquant CLI stages as subprocesses and check their outputs.

Each stage is timed from spawn to exit, and its peak RSS is read from
the rusage that os.wait4 returns for that child alone. The checks
re-derive every stage's expected output independently of the program
where that is cheap (file sizes, closed-form storage accounting, label
and width alignment, the quantization error bound).
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PASS_STAGES = ("score", "allocate", "quantize", "stats", "compare")

_DSR_HEADER = struct.Struct("<4sHQIIII")
_QDS_HEADER_BYTES = 34
_ORIGINAL_BITS = 32


@dataclass
class StageRun:
    stage: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.failures

    def porcelain(self) -> dict:
        return dict(line.split("=", 1) for line in self.stdout.splitlines()
                    if "=" in line)


def program_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def run_process(argv, env, workdir: Path, timeout: float, tag: str):
    """Spawn argv, wait for it with os.wait4 and return
    (wall_s, peak_rss_mb, exit_code, stdout, stderr)."""
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=workdir, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def run_stage(stage: str, args, env, workdir: Path, timeout: float) -> StageRun:
    argv = [sys.executable, "-m", "dsquant.cli", "--porcelain", stage, *args]
    wall, rss, code, out, err = run_process(argv, env, workdir, timeout, stage)
    run = StageRun(stage, wall, rss, code, out, err)
    if code != 0:
        last = err.strip().splitlines()[-1:] or ["(no stderr)"]
        run.failures.append(f"{stage} exited {code}: {last[0]}")
    return run


def stage_args(stage: str, files: dict, allocate_args) -> list:
    """CLI arguments of each pass stage; files maps role -> path."""
    return {
        "score": ["--dataset", files["dsr"], "--out", files["scores"]],
        "allocate": ["--scores", files["scores"], *allocate_args,
                     "--out", files["plan"]],
        "quantize": ["--dataset", files["dsr"], "--plan", files["plan"],
                     "--out", files["qds"]],
        "stats": ["--qds", files["qds"]],
        "compare": ["--dataset", files["dsr"], "--qds", files["qds"]],
    }[stage]


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- checks


def read_dsr(path):
    """Independent DSR1 reader: (num_classes, values memmap, labels)."""
    with open(path, "rb") as fh:
        raw = fh.read(_DSR_HEADER.size)
    if len(raw) != _DSR_HEADER.size:
        raise ValueError("truncated DSR header")
    magic, version, n, h, w, c, classes = _DSR_HEADER.unpack(raw)
    if magic != b"DSR1" or version != 1:
        raise ValueError(f"bad DSR header {magic!r} v{version}")
    elems = h * w * c
    expected = _DSR_HEADER.size + n * elems * 4 + n * 4
    if os.path.getsize(path) != expected:
        raise ValueError(f"DSR is {os.path.getsize(path)} bytes, expected {expected}")
    values = np.memmap(path, dtype="<f4", mode="r", offset=_DSR_HEADER.size,
                       shape=(n, elems))
    labels = np.fromfile(path, dtype="<u4", count=n,
                         offset=_DSR_HEADER.size + n * elems * 4)
    return classes, values, labels.astype(np.int64)


def check_ingest(dsr_path, source) -> list:
    try:
        classes, values, labels = read_dsr(dsr_path)
    except (OSError, ValueError) as exc:
        return [f"ingest: {exc}"]
    failures = []
    if classes != source.num_classes:
        failures.append(f"ingest: {classes} classes, expected {source.num_classes}")
    if values.shape != (source.labels.size, source.elements):
        failures.append(f"ingest: values shape {values.shape}")
    elif not np.array_equal(labels, source.labels):
        failures.append("ingest: labels differ from the source")
    elif source.values is not None and not np.array_equal(values, source.values):
        failures.append("ingest: values differ from the source")
    elif not np.isfinite(values).all():
        failures.append("ingest: non-finite values")
    return failures


def read_score_file(path, n: int):
    lines = Path(path).read_text().splitlines()
    if len(lines) != n:
        raise ValueError(f"{len(lines)} score lines for {n} samples")
    pairs = [line.split("\t") for line in lines]
    if [int(i) for i, _ in pairs] != list(range(n)):
        raise ValueError("score indices are not 0..N-1")
    return np.array([float(s) for _, s in pairs])


def check_scores(path, n: int) -> tuple:
    """Returns (failures, zero_fraction)."""
    try:
        scores = read_score_file(path, n)
    except (OSError, ValueError) as exc:
        return [f"score: {exc}"], None
    failures = []
    if not (np.isfinite(scores).all() and (scores >= 0).all()
            and (scores <= 2).all()):
        failures.append("score: a score lies outside [0, 2]")
    return failures, float(np.mean(scores == 0.0))


def largest_remainder(fractions, total: int) -> list:
    quotas = [f * total for f in fractions]
    sizes = [int(np.floor(q)) for q in quotas]
    order = sorted(range(len(quotas)), key=lambda g: (sizes[g] - quotas[g], g))
    for g in order[:total - sum(sizes)]:
        sizes[g] += 1
    return sizes


def read_plan_file(path, n: int) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 3 or int(header[0]) != n or len(lines) != n + 1:
        raise ValueError(f"plan header {header} does not cover {n} samples")
    pairs = [line.split("\t") for line in lines[1:]]
    if [int(i) for i, _ in pairs] != list(range(n)):
        raise ValueError("plan indices are not 0..N-1")
    widths = np.array([int(b) for _, b in pairs], dtype=np.int64)
    b_avg = widths.sum() / n
    if abs(float(header[1]) - b_avg) > 1e-8 * max(1.0, b_avg):
        raise ValueError(f"plan b_avg {header[1]} != {b_avg}")
    return widths


def check_plan(path, scores_path, n: int, bits, fractions) -> tuple:
    """Widths must follow the score order: each group gets its
    largest-remainder share, highest scores first, ties by index."""
    try:
        widths = read_plan_file(path, n)
        scores = read_score_file(scores_path, n)
    except (OSError, ValueError) as exc:
        return [f"allocate: {exc}"], None
    order = np.lexsort((np.arange(n), -scores))
    sizes = largest_remainder(fractions, n)
    expected = np.repeat(np.array(bits), sizes)
    if not np.array_equal(widths[order], expected):
        return ["allocate: widths do not follow the score order and group sizes"], widths
    return [], widths


def storage_closed_form(widths, elements: int) -> dict:
    """The `stats` fields, computed from the plan alone."""
    n = widths.size
    kept = widths[widths > 0]
    payload_bytes = int(((elements * kept + 7) // 8).sum())
    payload_bits = 8 * payload_bytes
    scale_bits = 32 * kept.size
    metadata_bits = 40 * n
    total_bits = _QDS_HEADER_BYTES * 8 + payload_bits + scale_bits + metadata_bits
    b_avg = int(widths.sum()) / n
    return {
        "payload_bits": payload_bits,
        "scale_bits": scale_bits,
        "metadata_bits": metadata_bits,
        "total_bytes": (total_bits + 7) // 8,
        "nominal_ratio": 1.0 - b_avg / _ORIGINAL_BITS,
        "realized_ratio": 1.0 - total_bits / (n * elements * _ORIGINAL_BITS),
    }


def check_report(stage: str, fields: dict, expected: dict) -> list:
    failures = []
    for key, want in expected.items():
        try:
            got = float(fields[key])
        except (KeyError, ValueError):
            failures.append(f"{stage}: missing field {key}")
            continue
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"{stage}: {key}={fields[key]}, closed form {want}")
    return failures


def check_qds(qds_path, dsr_path, widths) -> list:
    """read_qds must return the plan's widths and the dataset's labels,
    and every reconstructed value must lie within s/2 of its DSR value."""
    from dsquant.qds import read_qds

    _, values, labels = read_dsr(dsr_path)
    expected_size = storage_closed_form(widths, values.shape[1])["total_bytes"]
    if os.path.getsize(qds_path) != expected_size:
        return [f"quantize: QDS is {os.path.getsize(qds_path)} bytes, "
                f"closed form {expected_size}"]
    try:
        records, header = read_qds(qds_path)
    except ValueError as exc:
        return [f"quantize: read_qds failed: {exc}"]
    if header.sample_count != widths.size or len(records) != widths.size:
        return [f"quantize: {len(records)} records for {widths.size} samples"]
    got_widths = np.array([0 if r is None else r.bit_width for r in records])
    if not np.array_equal(got_widths, widths):
        return ["quantize: record widths differ from the plan"]
    kept = np.flatnonzero(widths)
    if any(records[i].label != labels[i] for i in kept):
        return ["quantize: record labels differ from the dataset"]
    for start in range(0, kept.size, 1024):
        rows = kept[start:start + 1024]
        codes = np.stack([records[i].codes for i in rows]).astype(np.float64)
        scales = np.array([records[i].scale for i in rows], dtype=np.float64)
        bounds = (1 << (widths[rows] - 1)) - 1
        if (np.abs(codes) > bounds[:, None]).any():
            return ["quantize: a code exceeds its width's range"]
        error = np.abs(codes * scales[:, None] - values[rows])
        if (error > scales[:, None] * (0.5 + 1e-6)).any():
            return ["quantize: a value is reconstructed further than s/2 "
                    "from its DSR value"]
    return []


def chance_limit(classes: int, n_test: int) -> float:
    """Accuracy within three standard errors of guessing."""
    p = 1.0 / classes
    return p + 3.0 * (p * (1.0 - p) / max(n_test, 1)) ** 0.5


def check_compare(fields: dict, guard: bool, classes: int, n_test: int) -> list:
    keys = ("train_accuracy", "test_accuracy", "baseline_test_accuracy",
            "accuracy_delta")
    try:
        acc = {k: float(fields[k]) for k in keys}
    except (KeyError, ValueError):
        return ["compare: missing accuracy fields"]
    failures = [f"compare: {k}={acc[k]} outside [0, 1]" for k in keys[:3]
                if not 0.0 <= acc[k] <= 1.0]
    if abs(acc["test_accuracy"] - acc["baseline_test_accuracy"]
           - acc["accuracy_delta"]) > 1e-8:
        failures.append("compare: accuracy_delta is not test - baseline")
    base = acc["baseline_test_accuracy"]
    if guard and (base <= chance_limit(classes, n_test) or base == 1.0):
        failures.append(f"compare: degenerate workload, baseline test "
                        f"accuracy {base} is at chance or perfect")
    return failures
