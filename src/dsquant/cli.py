"""Command-line pipeline: ingest -> score -> allocate -> quantize -> stats
-> compare.

Each stage reads the previous stage's file and writes its own output
atomically (temp file + rename), so a failing or interrupted stage
leaves neither a truncated artifact nor its temp file. Exit codes: 0
success, 1 I/O failure or out of memory, 2 validation failure, 128 +
signal number on SIGINT or SIGTERM. --porcelain prints key=value lines.

ingest streams a --cifar or --raw source into the dataset file a row
chunk at a time (--synth builds its dataset whole first); score reads
the dataset file whole; quantize and compare read it a row chunk at a
time (dataset.DatasetRows). score, quantize and compare may split their
work with a forked child (dsquant.parallel), which is killed and reaped
if the stage fails or is interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import signal
import sys
import threading
from pathlib import Path

from . import allocator, dataset as ds, qds, quantizer, sensitivity, trainer

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2


class _Emitter:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def kv(self, key, value):
        if self.porcelain:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")


def _parse_shape(text: str) -> ds.SampleShape:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"shape must be HxWxC, got {text!r}")
    h, w, c = (int(p) for p in parts)
    return ds.SampleShape(h, w, c)


def _cmd_ingest(args, emit: _Emitter) -> int:
    with contextlib.ExitStack() as files:
        if args.cifar:
            source = ds.CifarRecords(files.enter_context(open(args.cifar, "rb")),
                                     args.num_classes)
        elif args.raw:
            if args.shape is None:
                raise ValueError("--raw requires --shape HxWxC")
            values_fh, labels_fh = (files.enter_context(open(p, "rb")) for p in args.raw)
            source = ds.RawRows(values_fh, labels_fh, _parse_shape(args.shape),
                                args.num_classes)
        else:
            parts = args.synth.split(",")
            if len(parts) != 4:
                raise ValueError("--synth takes CLASSES,DIM,COUNT,SPREAD")
            classes, dim, total = int(parts[0]), int(parts[1]), int(parts[2])
            spread = float(parts[3])
            if classes < 2 or total % classes:
                raise ValueError("--synth sample count must divide evenly by classes")
            source = ds.synth_blobs(classes, dim, total // classes, spread, args.seed)
        ds.write_atomically(args.out, lambda tmp: ds.write_dataset_file(source, tmp))
    emit.kv("samples", source.labels.size)
    emit.kv("shape", source.shape)
    emit.kv("classes", source.num_classes)
    return EXIT_OK


def _cmd_score(args, emit: _Emitter) -> int:
    quantizer.max_code(args.probe_bits)  # refuse a bad width before reading or fitting
    dset = ds.read_dataset_file(args.dataset)
    oracle = trainer.fit_scoring_model(dset, args.seed)
    scores = sensitivity.score_dataset(dset, oracle, args.probe_bits)
    ds.write_atomically(args.out, lambda tmp: sensitivity.write_scores(scores, tmp))
    emit.kv("samples", scores.size)
    emit.kv("mean_score", f"{scores.mean():.9g}" if scores.size else "0")
    return EXIT_OK


def _cmd_allocate(args, emit: _Emitter) -> int:
    scores = sensitivity.read_scores(args.scores)
    # AllocationConfig parses and checks the levels and fractions
    config = allocator.AllocationConfig(
        bit_levels=args.bits.split(","),
        group_fractions=args.fractions.split(",") if args.fractions else None,
        prune_ratio=args.prune_ratio,
    )
    keep = allocator.read_keep_list(args.keep_list) if args.keep_list else None
    plan = allocator.allocate(scores, config, seed=args.seed, keep_indices=keep)
    ds.write_atomically(args.out, lambda tmp: allocator.write_plan(plan, tmp))
    emit.kv("samples", len(plan))
    emit.kv("b_avg", f"{plan.b_avg:.9g}")
    emit.kv("ratio", f"{plan.compression_ratio:.9g}")
    return EXIT_OK


def _cmd_quantize(args, emit: _Emitter) -> int:
    rows = ds.DatasetRows(args.dataset)
    plan = allocator.read_plan(args.plan)
    report = qds.write_qds(rows, plan, args.out)
    for key, value in dataclasses.asdict(report).items():
        emit.kv(key, value)
    return EXIT_OK


def _cmd_stats(args, emit: _Emitter) -> int:
    report = dataclasses.asdict(qds.storage_report(args.qds))
    width = max(map(len, report))
    for key, value in report.items():
        print(f"{key}={value}" if emit.porcelain else f"{key:<{width}}  {value}")
    return EXIT_OK


def _cmd_compare(args, emit: _Emitter) -> int:
    report = trainer.compare(args.dataset, args.qds,
                             trainer.TrainConfig(args.epochs, args.seed))
    emit.kv("train_accuracy", f"{report.train_accuracy:.9g}")
    emit.kv("test_accuracy", f"{report.test_accuracy:.9g}")
    emit.kv("baseline_test_accuracy", f"{report.baseline_test_accuracy:.9g}")
    emit.kv("accuracy_delta", f"{report.accuracy_delta:.9g}")
    if args.loss_csv:
        lines = ["epoch,loss\n"]
        lines += [f"{i},{loss:.9g}\n" for i, loss in enumerate(report.loss_curve)]
        ds.write_atomically(args.loss_csv, lambda tmp: Path(tmp).write_text("".join(lines)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsquant",
        description="Compress training datasets with sensitivity-driven "
                    "per-sample quantization.",
    )
    parser.add_argument("--porcelain", action="store_true",
                        help="machine-readable key=value output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build the internal dataset file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cifar", metavar="PATH")
    src.add_argument("--raw", nargs=2, metavar=("VALUES", "LABELS"))
    src.add_argument("--synth", metavar="C,DIM,N,SPREAD")
    p.add_argument("--shape", metavar="HxWxC")
    p.add_argument("--num-classes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("score", help="sensitivity-score every sample")
    p.add_argument("--dataset", required=True)
    p.add_argument("--probe-bits", type=int, default=sensitivity.DEFAULT_PROBE_BIT_WIDTH)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("allocate", help="assign per-sample bit-widths")
    p.add_argument("--scores", required=True)
    p.add_argument("--bits", required=True,
                   help="comma-separated descending bit levels, e.g. 8,0; "
                        "a single level is uniform quantization")
    p.add_argument("--fractions", help="comma-separated group fractions")
    p.add_argument("--prune-ratio", type=float, default=0.0)
    p.add_argument("--keep-list", help="file of surviving indices, one per line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("quantize", help="write the packed QDS container")
    p.add_argument("--dataset", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("stats", help="storage accounting for a QDS file")
    p.add_argument("--qds", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("compare", help="original vs dequantized training")
    p.add_argument("--dataset", required=True)
    p.add_argument("--qds", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--loss-csv", help="write the quantized arm's loss curve")
    p.set_defaults(func=_cmd_compare)
    return parser


def _terminate(signum, frame):
    raise KeyboardInterrupt(signum)  # unwinds like SIGINT, removing temp files


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    emit = _Emitter(args.porcelain)
    # only the main thread may set handlers; restore for in-process callers
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        return args.func(args, emit)
    except KeyboardInterrupt as exc:
        print("error: interrupted", file=sys.stderr)
        return 128 + (exc.args[0] if exc.args else signal.SIGINT)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
