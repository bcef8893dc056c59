"""Pipeline benchmark for dsquant.

Runs ingest -> score -> allocate -> quantize -> stats -> compare as the
user runs them, one CLI subprocess per stage, in a closed loop with one
client: each stage starts when the previous one has exited. Every stage's
output is checked. With --trace 1 the stages are also replayed in-process
through the same public functions, with spans, and the per-layer metrics
are printed instead of the end-to-end ones.

    python3 perfbench/run.py --workload small_records --seed 1 \\
        --seconds 50 --trace 0

The last line of standard output is the result as one JSON object. The
full record (environment, per-pass timings, output hashes, accuracies,
spans) is written to .perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import pipeline as pl
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_REPEATS = 5        # setup_s is the median of this many ingests
STARTUP_REPEATS = 5      # cli.startup_s is the median of this many imports
SHORT_STAGES = ("allocate", "quantize", "stats")
MIB = float(1 << 20)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "score_s": ("s", "lower"),
    "quantize_s": ("s", "lower"),
    "stats_s": ("s", "lower"),
    "compare_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "realized_ratio": ("ratio", "higher"),
}

_TRACED_STAGES = ("ingest",) + pl.PASS_STAGES
_WIDTHS = (2, 4, 8, 12, 16)
PER_LAYER = {
    "dataset.ingest_s": "s", "dataset.read_s": "s", "dataset.read_mb_s": "MB/s",
    "sensitivity.score_s": "s", "sensitivity.samples_s": "1/s",
    "sensitivity.write_scores_s": "s", "sensitivity.read_scores_s": "s",
    "sensitivity.zero_frac": "ratio",
    "trainer.fit_scoring_model_s": "s", "trainer.train_s": "s",
    "trainer.epoch_s": "s", "trainer.compare_s": "s",
    "allocator.allocate_s": "s", "allocator.write_plan_s": "s",
    "allocator.read_plan_s": "s",
    "quantizer.quantize_rows_s": "s",
    "quantizer.pack_call_us.p50": "us", "quantizer.pack_call_us.p99": "us",
    "quantizer.unpack_call_us.p50": "us", "quantizer.unpack_call_us.p99": "us",
    **{f"quantizer.pack_me_s.b{b}": "Me/s" for b in _WIDTHS},
    **{f"quantizer.unpack_me_s.b{b}": "Me/s" for b in _WIDTHS},
    "qds.write_s": "s", "qds.write_mb_s": "MB/s", "qds.read_s": "s",
    "qds.read_mb_s": "MB/s", "qds.storage_report_s": "s",
    "qds.materialize_s": "s",
    **{f"qds.records.b{b}": "count" for b in _WIDTHS},
    "qds.tombstones": "count", "qds.payload_bytes": "bytes",
    "cli.startup_s": "s", "cli.allocate_s": "s",
    **{f"cli.{s}_overhead_s": "s" for s in _TRACED_STAGES},
    **{f"cli.{s}.peak_rss_mb": "MB" for s in _TRACED_STAGES},
}


class Ledger:
    """Operations attempted and failed; an operation is one stage run
    (or one in-process replay, or the kernel checks) with its checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, failures) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)
        return not failures


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    from dsquant import quantizer

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        blas = {}
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "native_kernel": bool(quantizer.USING_NATIVE_KERNEL),
    }


class Bench:
    def __init__(self, workload, seed, scale, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.env = pl.program_env(SRC)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ledger = Ledger()
        self.files = {role: str(workdir / name) for role, name in (
            ("dsr", "data.dsr"), ("scores", "scores.tsv"),
            ("plan", "plan.tsv"), ("qds", "data.qds"))}
        self.hashes: dict = {}
        self.outputs: dict = {}      # stage -> porcelain fields of pass 1
        self.source_args = None
        self.elements = None
        self.labels = None
        self.widths = None
        self.zero_frac = None

    def timeout(self) -> float:
        return self.deadline - time.monotonic()

    def stage(self, stage, args) -> pl.StageRun:
        return pl.run_stage(stage, args, self.env, self.workdir, self.timeout())

    def import_time(self) -> float:
        argv = [sys.executable, "-c", "import dsquant.cli"]
        wall, _, code, _, err = pl.run_process(argv, self.env, self.workdir,
                                               self.timeout(), "startup")
        if code:
            raise RuntimeError(f"cannot import dsquant.cli: {err.strip()}")
        return wall

    # ------------------------------------------------------------ setup

    def ingest(self, repeats: int) -> list:
        source = self.workload.make_source(self.seed, self.workdir, self.scale)
        self.source_args = source.ingest_args
        self.elements = source.elements
        self.labels = source.labels
        runs = []
        for k in range(repeats):
            run = self.stage("ingest", [*source.ingest_args, "--out", self.files["dsr"]])
            if run.exit_code == 0:
                digest = pl.sha256(self.files["dsr"])
                if k == 0:
                    run.failures += pl.check_ingest(self.files["dsr"], source)
                    self.hashes["dsr"] = digest
                elif digest != self.hashes["dsr"]:
                    run.failures.append("ingest: output differs between repeats")
            runs.append(run)
            if not self.ledger.record(run.failures):
                break
        return runs

    # ------------------------------------------------------------ passes

    def check_first(self, run: pl.StageRun) -> None:
        w, n = self.workload, self.labels.size
        fields = run.porcelain()
        if run.stage == "score":
            failures, self.zero_frac = pl.check_scores(self.files["scores"], n)
            if w.guard_degenerate and self.zero_frac == 1.0:
                failures.append("score: degenerate workload, every score is 0")
        elif run.stage == "allocate":
            failures, self.widths = pl.check_plan(
                self.files["plan"], self.files["scores"], n, w.bits,
                w.group_fractions)
        elif run.stage in ("quantize", "stats"):
            closed = pl.storage_closed_form(self.widths, self.elements)
            failures = pl.check_report(run.stage, fields, closed)
            if run.stage == "quantize":
                failures += pl.check_qds(self.files["qds"], self.files["dsr"],
                                         self.widths)
        else:
            counts = np.bincount(self.labels)
            n_test = int(sum(round(0.2 * c) for c in counts))
            failures = pl.check_compare(fields, w.guard_degenerate,
                                        counts.size, n_test)
        run.failures += failures
        self.outputs[run.stage] = fields

    _OUTPUT_FILE = {"score": "scores", "allocate": "plan", "quantize": "qds"}

    def check_repeat(self, run: pl.StageRun) -> None:
        """A later pass must reproduce the first pass exactly."""
        same = run.porcelain() == self.outputs[run.stage]
        role = self._OUTPUT_FILE.get(run.stage)
        if role:
            same = same and pl.sha256(self.files[role]) == self.hashes[role]
        if not same:
            run.failures.append(f"{run.stage}: output differs from the first pass")

    def run_pass(self, stages=pl.PASS_STAGES) -> list | None:
        """Run the stages in order; None if one failed."""
        runs = []
        for i, stage in enumerate(stages):
            run = self.stage(stage, pl.stage_args(stage, self.files,
                                                  self.workload.allocate_args))
            if run.exit_code == 0:
                if stage not in self.outputs:
                    self.check_first(run)
                    role = self._OUTPUT_FILE.get(stage)
                    if role:
                        self.hashes[role] = pl.sha256(self.files[role])
                else:
                    self.check_repeat(run)
            runs.append(run)
            if not self.ledger.record(run.failures):
                for skipped in stages[i + 1:]:
                    self.ledger.record([f"{skipped}: not run, an earlier stage failed"])
                return None
        return runs

    def accuracies(self) -> dict:
        return {k: float(v) for k, v in self.outputs.get("compare", {}).items()}


def _fill(bench: Bench, stages, measured: float, seconds: float, rounds: list) -> float:
    """Repeat `stages` while another round fits in `seconds`."""
    while not bench.ledger.failed:
        runs = bench.run_pass(stages)
        if runs is None:
            break
        rounds.append(runs)
        took = sum(r.wall_s for r in runs)
        measured += took
        if measured + took > seconds or bench.timeout() < 2 * took + 10:
            break
    return measured


def run_untraced(bench: Bench, seconds: float) -> tuple:
    bench.import_time()  # warm the bytecode cache before timing
    setup = bench.ingest(SETUP_REPEATS)
    passes, short_rounds = [], []
    measured = _fill(bench, pl.PASS_STAGES, 0.0, seconds, passes)
    # The time left over after the last whole pass goes to the short
    # stages, whose single samples are the noisiest.
    short_s = sum(r.wall_s for r in passes[-1] if r.stage in SHORT_STAGES) if passes else 0
    if measured + short_s <= seconds:
        _fill(bench, SHORT_STAGES, measured, seconds, short_rounds)
    metrics = {}
    if not bench.ledger.failed:
        def median(stage):
            return statistics.median(r.wall_s for p in passes + short_rounds
                                     for r in p if r.stage == stage)
        metrics = {
            "setup_s": statistics.median(r.wall_s for r in setup),
            "score_s": median("score"),
            "quantize_s": median("quantize"),
            "stats_s": median("stats"),
            "compare_s": median("compare"),
            "pipeline_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
            "peak_rss_mb": max(r.peak_rss_mb for r in setup + sum(passes + short_rounds, [])),
            "realized_ratio": float(bench.outputs["stats"]["realized_ratio"]),
        }
    detail = {
        "setup": [_run_record(r) for r in setup],
        "passes": [[_run_record(r) for r in p] for p in passes],
        "short_rounds": [[_run_record(r) for r in p] for p in short_rounds],
    }
    return metrics, detail


def _run_record(run: pl.StageRun) -> dict:
    return {"stage": run.stage, "wall_s": run.wall_s,
            "peak_rss_mb": run.peak_rss_mb, "exit_code": run.exit_code}


def _rate(amount: float, seconds: float) -> float:
    """Throughput; 0 when the program made no such call."""
    return amount / seconds if seconds else 0.0


def run_traced(bench: Bench) -> tuple:
    import tracing
    from dsquant import qds

    startup = [bench.import_time() for _ in range(STARTUP_REPEATS + 1)][1:]
    cli_runs = {}
    setup = bench.ingest(1)
    if not bench.ledger.failed:
        runs = bench.run_pass()
        if runs:
            cli_runs = {r.stage: r for r in setup + runs}
    if bench.ledger.failed:
        return {}, {}

    tracer = tracing.Tracer()
    replay_dir = bench.workdir / "replay"
    replay_dir.mkdir()
    files = {role: str(replay_dir / Path(p).name) for role, p in bench.files.items()}
    stage_spans = {}
    with tracer.instrument():
        for stage in _TRACED_STAGES:
            args = ([*bench.source_args, "--out", files["dsr"]] if stage == "ingest"
                    else pl.stage_args(stage, files, bench.workload.allocate_args))
            span, code, out = tracing.replay_stage(tracer, stage, args)
            stage_spans[stage] = span
            failures = [] if code == 0 else [f"replay {stage} exited {code}"]
            if out != cli_runs[stage].stdout:
                failures.append(f"replay {stage}: output differs from the CLI")
            bench.ledger.record(failures)
        with tracer.span("layer.qds"):
            qds.materialize_training_set(files["qds"])
    mismatched = [role for role in bench.files
                  if pl.sha256(files[role]) != bench.hashes[role]]
    bench.ledger.record([f"replay: {role} file differs from the CLI's"
                         for role in mismatched])
    if bench.ledger.failed:
        return {}, {"spans": tracer.as_records()}

    with tracer.span("microbench.kernel"):
        kernel, failures = tracing.kernel_throughput(bench.seed)
    bench.ledger.record(failures)
    _, values, labels = pl.read_dsr(bench.files["dsr"])
    with tracer.span("microbench.quantizer"):
        calls = tracing.quantizer_calls(values, labels, bench.widths, bench.seed)

    total = tracer.total
    n = bench.labels.size
    dsr_mb = os.path.getsize(bench.files["dsr"]) / MIB
    qds_mb = os.path.getsize(bench.files["qds"]) / MIB
    reads = sum(s.name == "dataset.read_dataset_file" for s in tracer.spans)
    qds_reads = sum(s.name == "qds.read_qds" for s in tracer.spans)
    ingest_span = stage_spans["ingest"]
    closed = pl.storage_closed_form(bench.widths, bench.elements)
    metrics = {
        "dataset.ingest_s": sum(s.duration for s in tracer.spans
                                if s.parent == ingest_span.id
                                and s.name.startswith("dataset.")),
        "dataset.read_s": total("dataset.read_dataset_file"),
        "dataset.read_mb_s": _rate(reads * dsr_mb, total("dataset.read_dataset_file")),
        "sensitivity.score_s": total("sensitivity.score_dataset"),
        "sensitivity.samples_s": _rate(n, total("sensitivity.score_dataset")),
        "sensitivity.write_scores_s": total("sensitivity.write_scores"),
        "sensitivity.read_scores_s": total("sensitivity.read_scores"),
        "sensitivity.zero_frac": bench.zero_frac,
        "trainer.fit_scoring_model_s": total("trainer.fit_scoring_model"),
        "trainer.train_s": total("trainer.train", under="trainer.compare"),
        "trainer.epoch_s": total("trainer.train", under="trainer.fit_scoring_model"),
        "trainer.compare_s": total("trainer.compare"),
        "allocator.allocate_s": total("allocator.allocate"),
        "allocator.write_plan_s": total("allocator.write_plan"),
        "allocator.read_plan_s": total("allocator.read_plan"),
        **calls,
        **kernel,
        "qds.write_s": total("qds.write_qds"),
        "qds.write_mb_s": _rate(qds_mb, total("qds.write_qds")),
        "qds.read_s": total("qds.read_qds"),
        "qds.read_mb_s": _rate(qds_reads * qds_mb, total("qds.read_qds")),
        "qds.storage_report_s": total("qds.storage_report"),
        "qds.materialize_s": total("qds.materialize_training_set"),
        **{f"qds.records.b{b}": int((bench.widths == b).sum()) for b in _WIDTHS},
        "qds.tombstones": int((bench.widths == 0).sum()),
        "qds.payload_bytes": closed["payload_bits"] // 8,
        "cli.startup_s": statistics.median(startup),
        "cli.allocate_s": cli_runs["allocate"].wall_s,
    }
    accounting = {}
    for stage, span in stage_spans.items():
        wall = cli_runs[stage].wall_s
        overhead = wall - span.duration
        metrics[f"cli.{stage}_overhead_s"] = overhead
        metrics[f"cli.{stage}.peak_rss_mb"] = cli_runs[stage].peak_rss_mb
        accounting[stage] = {"wall_s": wall, "overhead_s": overhead,
                             **tracer.accounting(span)}
    detail = {
        "cli": {s: _run_record(r) for s, r in cli_runs.items()},
        "accounting": accounting,
        "spans": tracer.as_records(),
    }
    return metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole pipeline passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the workload's records (tests use "
                             "a tiny one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dsquant" / "cli.py").is_file():
        print(f"error: no dsquant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dsquant

    if Path(dsquant.__file__).resolve().parent != SRC / "dsquant":
        print(f"error: imported dsquant from {dsquant.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, args.seed, args.scale, workdir)
    try:
        if args.trace:
            metrics, detail = run_traced(bench)
            units = PER_LAYER
        else:
            metrics, detail = run_untraced(bench, args.seconds)
            units = {k: unit for k, (unit, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = bench.ledger
    correct = ledger.failed == 0 and set(metrics) == set(units)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds": args.seconds,
        "environment": environment(),
        "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed, "failures": ledger.failures,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        "hashes": bench.hashes, "accuracies": bench.accuracies(),
        **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in ledger.failures:
        print(f"FAIL {failure}")
    for key, unit in units.items():
        value = metrics.get(key)
        print(f"{key:32} {value if value is not None else '-':>14} {unit}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
