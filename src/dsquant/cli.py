"""Command-line pipeline: ingest -> score -> allocate -> quantize -> stats
-> compare.

Each stage reads the previous stage's file and writes its own output
atomically: OUT.tmp, created before the work so that an unwritable OUT
fails at once, then renamed to OUT. A failing or interrupted stage
leaves neither a truncated artifact nor OUT.tmp; only SIGKILL can leave
OUT.tmp, at any point of the work. Exit codes: 0 success, 1 I/O failure
or out of memory, 2 validation failure, 128 + signal number on SIGINT
or SIGTERM. Each stage returns its fields and main alone prints them:
aligned `key  value` columns, or key=value lines under --porcelain.

Every stage reads its samples through a row source (dsquant.dataset).
score, quantize and compare may fork a child (dsquant.parallel), which
is killed and reaped if the stage fails or is interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import allocator, dataset as ds, qds, quantizer, sensitivity, trainer

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2


def _number(flag: str, field: str, text: str, kind=int):
    """text, the field of flag's argument, as kind (int or float)."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag}: {field} must be {noun}, got {text!r}") from None


def _parse_shape(text: str) -> ds.SampleShape:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"shape must be HxWxC, got {text!r}")
    return ds.SampleShape(*(_number("--shape", f, p) for f, p in zip("HWC", parts)))


def _cmd_ingest(args) -> dict:
    mode = "cifar" if args.cifar else "raw" if args.raw else "synth"
    unread = {"cifar": ["shape", "seed"], "raw": ["seed"], "synth": ["num_classes", "shape"]}
    for name in unread[mode]:  # a flag this source never reads
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is not read with --{mode}")
    num_classes = 10 if args.num_classes is None else args.num_classes
    if args.cifar:
        source = ds.CifarRecords(args.cifar, num_classes)
    elif args.raw:
        if args.shape is None:
            raise ValueError("--raw requires --shape HxWxC")
        source = ds.RawRows(*args.raw, _parse_shape(args.shape), num_classes)
    else:
        parts = args.synth.split(",")
        if len(parts) != 4:
            raise ValueError("--synth takes CLASSES,DIM,COUNT,SPREAD")
        classes, dim, total, spread = (_number("--synth", *field) for field in zip(
            ("CLASSES", "DIM", "COUNT", "SPREAD"), parts, (int, int, int, float)))
        if classes < 2:
            raise ValueError("--synth needs at least 2 classes")
        if total % classes:
            raise ValueError("--synth sample count must divide evenly by classes")
        source = ds.synth_blobs(classes, dim, total // classes, spread, args.seed or 0)
    with ds.write_atomically(args.out) as tmp:
        ds.write_dataset_file(source, tmp)
    return {"samples": source.labels.size, "shape": source.shape,
            "classes": source.num_classes}


def _cmd_score(args) -> dict:
    quantizer.max_code(args.probe_bits)  # refuse a bad width before reading or fitting
    rows = ds.DatasetRows(args.dataset)
    with ds.write_atomically(args.out) as tmp:
        # the float32 rows are the fit's alone, freed when it returns
        oracle = trainer.fit_scoring_model(rows.take(np.arange(rows.labels.size), np.float32),
                                           rows.labels, rows.num_classes, args.seed)
        scores = sensitivity.score_dataset(rows, oracle, args.probe_bits)
        sensitivity.write_scores(scores, tmp)
    return {"samples": scores.size, "mean_score": f"{scores.mean():.9g}"}


def _cmd_allocate(args) -> dict:
    if args.seed is not None and not args.prune_ratio:
        raise ValueError("--seed is not read unless --prune-ratio is above 0")
    # AllocationConfig checks the levels and fractions
    config = allocator.AllocationConfig(
        bit_levels=[_number("--bits", "level", b) for b in args.bits.split(",")],
        group_fractions=[_number("--fractions", "fraction", f, float)
                         for f in args.fractions.split(",")] if args.fractions else None,
        prune_ratio=args.prune_ratio,
    )
    scores = sensitivity.read_scores(args.scores)
    keep = allocator.read_keep_list(args.keep_list) if args.keep_list else None
    with ds.write_atomically(args.out) as tmp:
        plan = allocator.allocate(scores, config, seed=args.seed or 0, keep_indices=keep)
        allocator.write_plan(plan, tmp)
    return {"samples": len(plan), "b_avg": f"{plan.b_avg:.9g}",
            "ratio": f"{plan.compression_ratio:.9g}"}


def _cmd_quantize(args) -> dict:
    rows, plan = ds.DatasetRows(args.dataset), allocator.read_plan(args.plan)
    return dataclasses.asdict(qds.write_qds(rows, plan, args.out))


def _cmd_stats(args) -> dict:
    return dataclasses.asdict(qds.storage_report(args.qds))


def _cmd_compare(args) -> dict:
    config = trainer.TrainConfig(args.epochs, args.seed)
    with ds.write_atomically(args.loss_csv) if args.loss_csv else contextlib.nullcontext() as tmp:
        report = trainer.compare(args.dataset, args.qds, config)
        if tmp:
            Path(tmp).write_text("epoch,loss\n" + "".join(
                f"{i},{loss:.9g}\n" for i, loss in enumerate(report.loss_curve)))
    return {key: f"{getattr(report, key):.9g}" for key in (
        "train_accuracy", "test_accuracy", "baseline_test_accuracy", "accuracy_delta")}


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
    p.add_argument("--shape", metavar="HxWxC", help="--raw only")
    p.add_argument("--num-classes", type=int, help="--cifar and --raw only (default 10)")
    p.add_argument("--seed", type=int, help="--synth only (default 0)")
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
    p.add_argument("--seed", type=int, help="--prune-ratio only (default 0)")
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
    # only the main thread may set handlers; restore for in-process callers
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # before any input
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        fields = args.func(args)
        width = max(map(len, fields))
        for key, value in fields.items():
            print(f"{key}={value}" if args.porcelain else f"{key:<{width}}  {value}")
        return EXIT_OK
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
