import argparse
import errno
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference import (
    raw_rows,
    reference_dataset_bytes,
    reference_ingest_cifar,
    reference_ingest_raw,
)

import dsquant
from dsquant import allocator, dataset, parallel, qds, sensitivity, trainer
from dsquant.allocator import AllocationPlan
from dsquant.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from dsquant.dataset import (
    CifarRecords,
    RawRows,
    SampleShape,
    synth_blobs,
    write_dataset_file,
)
from dsquant.qds import write_qds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def porcelain(out):
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


@pytest.fixture
def synth_file(tmp_path, capsys):
    path = tmp_path / "data.bin"
    code, _, _ = run(capsys, "ingest", "--synth", "3,16,300,0.5",
                     "--seed", "7", "--out", str(path))
    assert code == EXIT_OK
    return path


class TestIngest:
    def test_synth_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            code, _, _ = run(capsys, "ingest", "--synth", "3,64,300,0.5",
                             "--seed", "7", "--out", str(out))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_synth_reports_counts(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--porcelain", "ingest", "--synth",
                           "3,16,300,0.5", "--out", str(tmp_path / "d.bin"))
        kv = porcelain(out)
        assert kv["samples"] == "300"
        assert kv["shape"] == "1x1x16"
        assert kv["classes"] == "3"

    def test_cifar_record_count(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        records = b"".join(
            bytes([rng.integers(0, 10)]) + rng.integers(0, 256, 3072,
                                                        dtype=np.uint8).tobytes()
            for _ in range(4)
        )
        src = tmp_path / "batch.bin"
        src.write_bytes(records)
        code, out, _ = run(capsys, "--porcelain", "ingest", "--cifar", str(src),
                           "--out", str(tmp_path / "d.bin"))
        assert code == EXIT_OK
        assert porcelain(out)["samples"] == "4"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "ingest", "--cifar",
                           str(tmp_path / "nope.bin"),
                           "--out", str(tmp_path / "d.bin"))
        assert code == EXIT_IO
        assert "nope.bin" in err

    def test_bad_synth_spec_is_validation_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "ingest", "--synth", "3,16,301,0.5",
                         "--out", str(tmp_path / "d.bin"))
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("source, message", [
        (["--raw", "v.f32le", "l.u32le"], "--raw requires --shape HxWxC"),
        (["--raw", "v.f32le", "l.u32le", "--shape", "4x4"], "shape must be HxWxC, got '4x4'"),
        (["--synth", "3,16,300"], "--synth takes CLASSES,DIM,COUNT,SPREAD"),
        (["--synth", "1,4,10,1"], "--synth needs at least 2 classes"),
        (["--synth", "0,4,10,1"], "--synth needs at least 2 classes"),
        (["--synth", "3,16,301,0.5"], "--synth sample count must divide evenly by classes"),
        (["--synth", "3,16,abc,1"], "--synth: COUNT must be an integer, got 'abc'"),
        (["--synth", "3,16,30,x"], "--synth: SPREAD must be a number, got 'x'"),
        (["--synth", "3,16,30,nan"], "invalid synthetic dataset sizes: spread nan"),
        (["--raw", "v.f32le", "l.u32le", "--shape", "1x1xq"],
         "--shape: C must be an integer, got 'q'"),
        # a flag that the chosen source never reads
        (["--synth", "3,16,30,1", "--num-classes", "5", "--shape", "2x2x2"],
         "--num-classes is not read with --synth"),
        (["--synth", "3,16,30,1", "--shape", "2x2x2"], "--shape is not read with --synth"),
        (["--cifar", "batch.bin", "--shape", "32x32x3"], "--shape is not read with --cifar"),
        (["--cifar", "batch.bin", "--seed", "1"], "--seed is not read with --cifar"),
        (["--raw", "v.f32le", "l.u32le", "--shape", "1x1x4", "--seed", "1"],
         "--seed is not read with --raw"),
    ], ids=["no-shape", "bad-shape", "synth-fields", "synth-one-class", "synth-no-class",
            "synth-uneven", "synth-count-text", "synth-spread-text", "synth-spread-nan",
            "shape-text", "synth-num-classes", "synth-shape", "cifar-shape", "cifar-seed",
            "raw-seed"])
    def test_a_malformed_source_argument_is_one_line(self, tmp_path, capsys, source,
                                                     message):
        code, out, err = run(capsys, "ingest", *source, "--out", str(tmp_path / "d.bin"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, at", [("cifar10", 0), ("raw", 0), ("raw", 1), ("dsr", 0)],
                             ids=["cifar", "raw-values", "raw-labels", "score-dataset"])
    def test_a_pipe_source_is_one_line(self, tmp_path, capsys, kind, at):
        # a row source reads by seeking, so it needs a file, not a pipe
        if kind == "dsr":
            args, command = [str(tmp_path / "d.dsr")], ["score", "--dataset"]
            write_dataset_file(synth_blobs(3, 4, 10, 0.5, seed=1), args[0])
        else:
            args, _ = _ingest_source(tmp_path, kind, 4)
            command = ["ingest", "--raw" if kind == "raw" else "--cifar"]
        reader, writer = os.pipe()
        try:
            os.write(writer, Path(args[at]).read_bytes())
            args[at] = f"/dev/fd/{reader}"
            out_dir = tmp_path / "out"
            out_dir.mkdir()
            code, out, err = run(capsys, *command, *args, "--out", str(out_dir / "out"))
        finally:
            os.close(reader)
            os.close(writer)
        assert code == EXIT_IO
        assert out == "" and err.startswith(f"error: /dev/fd/{reader}: ")
        assert err.count("\n") == 1
        assert list(out_dir.iterdir()) == []

    def test_a_label_file_of_the_wrong_size_names_its_bytes(self, tmp_path, capsys):
        # 41 bytes holds 10 whole labels, so a count of labels hides the fault
        (tmp_path / "v.f32le").write_bytes(bytes(10 * 4 * 4))
        (tmp_path / "l.u32le").write_bytes(bytes(41))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "ingest", "--raw", str(tmp_path / "v.f32le"),
                             str(tmp_path / "l.u32le"), "--shape", "1x1x4",
                             "--out", str(out_dir / "d.dsr"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {tmp_path / 'l.u32le'}: label stream is 41 bytes, "
                                  "expected 40 for 10 samples\n")
        assert list(out_dir.iterdir()) == []

    def test_a_value_file_of_a_partial_row_names_its_bytes(self, tmp_path, capsys):
        (tmp_path / "v.f32le").write_bytes(bytes(10))
        (tmp_path / "l.u32le").write_bytes(bytes(4))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "ingest", "--raw", str(tmp_path / "v.f32le"),
                             str(tmp_path / "l.u32le"), "--shape", "1x1x2",
                             "--out", str(out_dir / "d.dsr"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {tmp_path / 'v.f32le'}: value stream of 10 bytes "
                                  "is not a multiple of the 8-byte sample size\n")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("spread", ["nan", "inf", "1e309", "-inf", "0"])
    def test_a_spread_that_is_not_positive_and_finite_is_refused(self, tmp_path, capsys,
                                                                  spread):
        code, _, err = run(capsys, "ingest", "--synth", f"3,4,30,{spread}",
                           "--out", str(tmp_path / "d.bin"))
        assert code == EXIT_VALIDATION
        assert err == f"error: invalid synthetic dataset sizes: spread {float(spread)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape, classes, message", [
        ("1x1x2", 2 ** 32, "class count 4294967296"),
        ("4294967296x1x1", 10, "height 4294967296"),
    ], ids=["classes", "height"])
    def test_a_header_field_beyond_u32_is_refused(self, tmp_path, capsys, shape, classes,
                                                  message):
        n = 1 if shape == "1x1x2" else 0
        (tmp_path / "v.f32le").write_bytes(np.zeros(2 * n, "<f4").tobytes())
        (tmp_path / "l.u32le").write_bytes(np.zeros(n, "<u4").tobytes())
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "ingest", "--raw", str(tmp_path / "v.f32le"),
                             str(tmp_path / "l.u32le"), "--shape", shape,
                             "--num-classes", str(classes), "--out", str(out_dir / "x.dsr"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {message} does not fit the dataset header's "
                                  "u32 field\n")
        assert list(out_dir.iterdir()) == []


def _ingest_source(root, kind, n):
    """Write an n-record --cifar (CIFAR-10 or -100) or --raw source under
    root: (its ingest arguments, (its shape, its class count, and the
    values and labels the whole-array decoders make of it))."""
    rng = np.random.default_rng(n)
    if kind == "raw":
        values = rng.standard_normal((n, 16)).astype("<f4").tobytes()
        labels = rng.integers(0, 5, n).astype("<u4").tobytes()
        (root / "v.f32le").write_bytes(values)
        (root / "l.u32le").write_bytes(labels)
        shape = SampleShape(2, 4, 2)
        return ([str(root / "v.f32le"), str(root / "l.u32le"), "--shape", "2x4x2",
                 "--num-classes", "5"],
                (shape, 5, *reference_ingest_raw(values, labels, shape)))
    classes = 100 if kind == "cifar100" else 10
    label_bytes = 2 if classes == 100 else 1
    records = rng.integers(0, 256, (n, label_bytes + 3072), dtype=np.uint8)
    records[:, label_bytes - 1] = rng.integers(0, classes, n)
    (root / "batch.bin").write_bytes(records.tobytes())
    return ([str(root / "batch.bin"), "--num-classes", str(classes)],
            (CifarRecords.shape, classes, *reference_ingest_cifar(records.tobytes(), classes)))


class TestStreamedIngest:
    """ingest reads a --cifar or --raw source a row chunk at a time into
    the dataset file: the bytes are the whole-array decoders', and a fault
    met mid-stream is one error line that leaves no file."""

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 12])  # chunks of 4 rows
    @pytest.mark.parametrize("kind", ["cifar10", "cifar100", "raw"])
    def test_same_bytes_as_the_whole_array_decoders(self, tmp_path, capsys, monkeypatch,
                                                    kind, n):
        args, expected = _ingest_source(tmp_path, kind, n)
        shape, classes, _, _ = expected
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", 4 * shape.element_count)
        flag = "--raw" if kind == "raw" else "--cifar"
        code, out, _ = run(capsys, "--porcelain", "ingest", flag, *args,
                           "--out", str(tmp_path / "d.dsr"))
        assert code == EXIT_OK
        assert porcelain(out)["samples"] == str(n)
        assert (tmp_path / "d.dsr").read_bytes() == reference_dataset_bytes(*expected)
        # the same decoders called as a library
        if kind == "raw":
            again = RawRows(args[0], args[1], shape, 5)
        else:
            again = CifarRecords(args[0], classes)
        write_dataset_file(again, tmp_path / "again.dsr")
        assert (tmp_path / "again.dsr").read_bytes() == reference_dataset_bytes(*expected)

    def test_cifar_ingest_holds_one_row_chunk(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", 1 << 16)  # 21 rows
        args, (_, _, values, _) = _ingest_source(tmp_path, "cifar10", 2000)
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "ingest", "--cifar", *args, "--out", str(tmp_path / "d.dsr"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # the whole-array path held the source, its float32 cast and the
        # divided copy: over 2.25 times the 23 MiB of output values
        assert peak < values.nbytes // 4

    @pytest.mark.parametrize("fault, message", [
        ("cifar-label", "record 9: label 10 out of range for 10 classes"),
        ("raw-nan", "record 11: sample values must be finite"),
        ("cifar-shrunk", "truncated CIFAR stream: the file shrank while read"),
        ("raw-shrunk", "truncated value stream: the file shrank while read"),
    ])
    def test_a_fault_in_the_last_chunk_is_one_line_and_leaves_no_file(
            self, tmp_path, capsys, monkeypatch, fault, message):
        kind = fault.split("-")[0]
        args, (shape, _, _, _) = _ingest_source(tmp_path, "raw" if kind == "raw" else "cifar10",
                                                12)
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS",
                            4 * shape.element_count)  # rows 8-11 come last
        source = Path(args[0])
        data = bytearray(source.read_bytes())
        if fault == "cifar-label":  # the first bad record, not the largest label
            data[9 * 3073], data[11 * 3073] = 10, 200
        elif fault == "raw-nan":
            data[-4:] = np.float32(np.nan).tobytes()
        else:  # the source loses its last byte after ingest has opened it
            writer = dataset.write_dataset_file

            def shrink_then_write(rows, path):
                os.truncate(source, len(data) - 1)
                writer(rows, path)

            monkeypatch.setattr("dsquant.dataset.write_dataset_file", shrink_then_write)
        source.write_bytes(bytes(data))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _, err = run(capsys, "ingest", f"--{'raw' if kind == 'raw' else 'cifar'}",
                           *args, "--out", str(out_dir / "d.dsr"))
        assert code == EXIT_VALIDATION
        assert err == f"error: {source}: {message}\n"  # the file at fault
        assert list(out_dir.iterdir()) == []


class TestPipelineStages:
    def test_allocate_paper_budget(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{i}\t{(i % 7) / 7}\n" for i in range(100)))
        code, out, _ = run(capsys, "--porcelain", "allocate",
                           "--scores", str(scores), "--bits", "8,0",
                           "--out", str(tmp_path / "plan.tsv"))
        assert code == EXIT_OK
        kv = porcelain(out)
        assert kv["b_avg"] == "4"
        assert kv["ratio"] == "0.875"

    def test_allocate_fixed_uniform(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{i}\t0.5\n" for i in range(10)))
        code, out, _ = run(capsys, "--porcelain", "allocate",
                           "--scores", str(scores), "--bits", "4",
                           "--out", str(tmp_path / "plan.tsv"))
        assert code == EXIT_OK
        assert porcelain(out)["ratio"] == "0.875"

    def test_allocate_refuses_a_keep_list_with_a_prune_ratio(self, tmp_path, capsys):
        scores, keep = tmp_path / "scores.tsv", tmp_path / "keep.txt"
        scores.write_text("".join(f"{i}\t{i / 4}\n" for i in range(4)))
        keep.write_text("0\n1\n2\n3\n")
        argv = ("allocate", "--scores", str(scores), "--bits", "8", "--keep-list", str(keep),
                "--out", str(tmp_path / "plan.tsv"))
        code, out, err = run(capsys, *argv, "--prune-ratio", "0.5")
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: a keep-list and a prune ratio exclude each other\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["keep.txt", "scores.tsv"]
        code, _, _ = run(capsys, *argv)  # the keep-list alone pins the survivors
        assert code == EXIT_OK
        assert allocator.read_plan(tmp_path / "plan.tsv").assignments.tolist() == [8] * 4

    @pytest.mark.parametrize("prune", [[], ["--prune-ratio", "0"]], ids=["none", "zero"])
    def test_allocate_refuses_a_seed_that_no_prune_step_reads(self, tmp_path, capsys, prune):
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{i}\t{i / 4}\n" for i in range(4)))
        argv = ("allocate", "--scores", str(scores), "--bits", "8", "--seed", "3",
                "--out", str(tmp_path / "plan.tsv"))
        code, out, err = run(capsys, *argv, *prune)
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: --seed is not read unless --prune-ratio is above 0\n")
        assert [path.name for path in tmp_path.iterdir()] == ["scores.tsv"]
        code, _, _ = run(capsys, *argv, "--prune-ratio", "0.5")  # the seed picks the drops
        assert code == EXIT_OK
        assert allocator.read_plan(tmp_path / "plan.tsv").assignments.tolist().count(0) == 2

    def test_allocate_idempotent(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{i}\t{i / 10}\n" for i in range(10)))
        plan = tmp_path / "plan.tsv"
        for _ in range(2):
            code, _, _ = run(capsys, "allocate", "--scores", str(scores),
                             "--bits", "8,0", "--out", str(plan))
            assert code == EXIT_OK
            content = plan.read_bytes()
        assert plan.read_bytes() == content

    def test_quantize_stage_mismatch(self, tmp_path, capsys, synth_file):
        plan = tmp_path / "plan.tsv"
        plan.write_text("2 8 0.75\n0\t8\n1\t8\n")
        out_file = tmp_path / "data.qds"
        code, _, err = run(capsys, "quantize", "--dataset", str(synth_file),
                           "--plan", str(plan), "--out", str(out_file))
        assert code == EXIT_VALIDATION
        assert not out_file.exists()

    @pytest.mark.parametrize("text, message", [
        ("99999999999999 8 0.75\n0\t8\n1\t8\n", "expected 99999999999999 assignments, found 2"),
        ("2 8 0.75\n0\t8\n1\t8\n2\t8\n", "expected 2 assignments, found 3"),
    ])
    def test_quantize_rejects_plan_count_mismatch(self, tmp_path, capsys, synth_file,
                                                  text, message):
        plan = tmp_path / "plan.tsv"
        plan.write_text(text)
        code, _, err = run(capsys, "quantize", "--dataset", str(synth_file),
                           "--plan", str(plan), "--out", str(tmp_path / "data.qds"))
        assert code == EXIT_VALIDATION
        assert err == f"error: {plan}: {message}\n"

    @pytest.mark.parametrize("header, values", [
        ("2 99 -5", "99 -5"),
        ("2 abc xyz", "abc xyz"),
        ("2 8 0.75", "8 0.75"),  # the header of two 8-bit rows
    ])
    def test_quantize_rejects_plan_header_mismatch(self, tmp_path, capsys, synth_file,
                                                   header, values):
        plan = tmp_path / "plan.tsv"
        plan.write_text(f"{header}\n0\t8\n1\t0\n")
        code, _, err = run(capsys, "quantize", "--dataset", str(synth_file),
                           "--plan", str(plan), "--out", str(tmp_path / "data.qds"))
        assert code == EXIT_VALIDATION
        assert err == (f"error: {plan}: header b_avg and ratio {values} "
                       f"do not match the rows (4 0.875)\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_allocate_rejects_non_finite_score(self, tmp_path, capsys, bad):
        scores = tmp_path / "scores.tsv"
        scores.write_text(f"0\t0.5\n1\t{bad}\n2\t0.25\n")
        code, _, err = run(capsys, "allocate", "--scores", str(scores),
                           "--bits", "8,4", "--out", str(tmp_path / "plan.tsv"))
        assert code == EXIT_VALIDATION
        assert err == f"error: {scores}: score at index 1 is not finite ({bad})\n"

    def test_allocate_rejects_empty_score_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "allocate", "--scores", str(scores),
                               "--bits", "8,4", "--out", str(tmp_path / "plan.tsv"))
        assert code == EXIT_VALIDATION
        assert err == "error: empty score list\n"

    @pytest.mark.parametrize("flags, message", [
        (["--bits", "8,x"], "--bits: level must be an integer, got 'x'"),
        (["--bits", "8,4", "--fractions", "0.5,y"],
         "--fractions: fraction must be a number, got 'y'"),
    ], ids=["bits", "fractions"])
    def test_allocate_names_the_flag_of_a_field_that_does_not_parse(self, tmp_path, capsys,
                                                                    flags, message):
        scores = tmp_path / "scores.tsv"
        scores.write_text("0\t0.5\n1\t0.25\n")
        code, out, err = run(capsys, "allocate", "--scores", str(scores), *flags,
                             "--out", str(tmp_path / "plan.tsv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {message}\n")
        assert not (tmp_path / "plan.tsv").exists()

    @pytest.mark.parametrize("fractions", ["0.5,nan", "nan,nan", "inf,0.5"])
    def test_allocate_rejects_non_finite_fraction(self, tmp_path, capsys, fractions):
        scores = tmp_path / "scores.tsv"
        scores.write_text("0\t0.5\n1\t0.25\n")
        code, _, err = run(capsys, "allocate", "--scores", str(scores), "--bits", "8,4",
                           "--fractions", fractions, "--out", str(tmp_path / "plan.tsv"))
        assert code == EXIT_VALIDATION
        named = ", ".join(str(float(f)) for f in fractions.split(","))
        assert err == f"error: group fractions must be finite, got {named}\n"

    @staticmethod
    def _write_partial_then_fail(_, path):
        with open(path, "wb") as fh:
            fh.write(b"partial")
        raise OSError("disk full")

    @staticmethod
    def _fail_encoding(codes, bits):  # write_qds has already written its header
        raise OSError("disk full")

    @pytest.mark.parametrize("stage, writer", [
        ("ingest", "dsquant.dataset.write_dataset_file"),
        ("score", "dsquant.sensitivity.write_scores"),
        ("allocate", "dsquant.allocator.write_plan"),
        ("quantize", "dsquant.qds.pack_code_rows"),
    ])
    def test_failed_writer_leaves_no_temp_file(self, tmp_path, capsys, synth_file,
                                               monkeypatch, stage, writer):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        fail = (self._fail_encoding if stage == "quantize"
                else self._write_partial_then_fail)
        monkeypatch.setattr(writer, fail)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        args = {
            "ingest": ["--synth", "3,16,300,0.5"],
            "score": ["--dataset", str(synth_file)],
            "allocate": ["--scores", str(tmp_path / "scores.tsv"), "--bits", "8,4"],
            "quantize": ["--dataset", str(synth_file),
                         "--plan", str(tmp_path / "plan.tsv")],
        }[stage]
        code, _, err = run(capsys, stage, *args, "--out", str(out_dir / "result"))
        assert code in (EXIT_IO, EXIT_VALIDATION)
        assert err == "error: disk full\n"  # the stage called the patched writer
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("stage", ["ingest", "score", "allocate", "quantize", "compare"])
    def test_an_output_path_that_is_a_directory_leaves_no_temp_file(self, tmp_path, capsys,
                                                                     synth_file, stage):
        # the writer succeeds and the rename onto the directory fails
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept").write_text("kept")
        args = {
            "ingest": ["--synth", "3,16,300,0.5", "--out"],
            "score": ["--dataset", str(synth_file), "--out"],
            "allocate": ["--scores", str(tmp_path / "scores.tsv"), "--bits", "8,4", "--out"],
            "quantize": ["--dataset", str(synth_file), "--plan", str(tmp_path / "plan.tsv"),
                         "--out"],
            "compare": ["--dataset", str(synth_file), "--qds", str(tmp_path / "data.qds"),
                        "--epochs", "1", "--loss-csv"],
        }[stage]
        code, out, err = run(capsys, stage, *args, str(target))
        assert code == EXIT_IO
        assert (out, err) == ("", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                  f"'{target}.tmp' -> '{target}'\n")
        assert not list(tmp_path.rglob("*.tmp"))
        assert [(p.name, p.read_text()) for p in target.iterdir()] == [("kept", "kept")]

    @pytest.mark.parametrize("stage", ["ingest", "score", "allocate", "quantize", "compare"])
    def test_an_output_in_a_missing_directory_names_the_output(self, tmp_path, capsys,
                                                                synth_file, stage):
        # the writer fails to create the temp file; the error names --out
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        before = sorted(tmp_path.rglob("*"))
        target = tmp_path / "nodir" / "out"
        args = {
            "ingest": ["--synth", "3,16,300,0.5", "--out"],
            "score": ["--dataset", str(synth_file), "--out"],
            "allocate": ["--scores", str(tmp_path / "scores.tsv"), "--bits", "8,4", "--out"],
            "quantize": ["--dataset", str(synth_file), "--plan", str(tmp_path / "plan.tsv"),
                         "--out"],
            "compare": ["--dataset", str(synth_file), "--qds", str(tmp_path / "data.qds"),
                        "--epochs", "1", "--loss-csv"],
        }[stage]
        code, out, err = run(capsys, stage, *args, str(target))
        assert code == EXIT_IO
        assert (out, err) == ("", f"error: file not found: {target}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
    def test_interrupted_writer_leaves_no_temp_file(self, tmp_path, capsys, synth_file,
                                                    monkeypatch, signum):
        def write_then_interrupt(_, path):
            with open(path, "w") as fh:
                fh.write("0\t0.5\n")
            # a default handler here would end the test run, not fail a test
            assert signal.getsignal(signum) not in (signal.SIG_DFL, signal.SIG_IGN)
            signal.raise_signal(signum)

        monkeypatch.setattr("dsquant.sensitivity.write_scores", write_then_interrupt)
        sigterm_handler = signal.getsignal(signal.SIGTERM)
        sigint_handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        try:
            code, out, err = run(capsys, "score", "--dataset", str(synth_file),
                                 "--out", str(out_dir / "scores.tsv"))
        except KeyboardInterrupt:  # would stop the test run, not fail a test
            pytest.fail("the interrupt escaped main")
        finally:
            signal.signal(signal.SIGINT, sigint_handler)
        assert code == 128 + signum
        assert (out, err) == ("", "error: interrupted\n")
        assert list(out_dir.iterdir()) == []
        assert signal.getsignal(signal.SIGTERM) is sigterm_handler

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
    @pytest.mark.parametrize("stage", ["score", "compare"])
    def test_an_interrupted_fit_leaves_no_temp_file(self, tmp_path, capsys, synth_file,
                                                    monkeypatch, stage, signum):
        # the temp file exists from before the fit, so the fit's interrupt removes it too
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")

        def interrupted_fit(*args):
            assert signal.getsignal(signum) not in (signal.SIG_DFL, signal.SIG_IGN)
            signal.raise_signal(signum)

        fit = "fit_scoring_model" if stage == "score" else "_descend"
        monkeypatch.setattr(trainer, fit, interrupted_fit)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: False)  # inline
        sigint_handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        args = {
            "score": ["--dataset", str(synth_file), "--out"],
            "compare": ["--dataset", str(synth_file), "--qds", str(tmp_path / "data.qds"),
                        "--epochs", "1", "--loss-csv"],
        }[stage]
        try:
            code, out, err = run(capsys, stage, *args, str(out_dir / "result"))
        except KeyboardInterrupt:  # would stop the test run, not fail a test
            pytest.fail("the interrupt escaped main")
        finally:
            signal.signal(signal.SIGINT, sigint_handler)
        assert code == 128 + signum
        assert (out, err) == ("", "error: interrupted\n")
        assert list(out_dir.iterdir()) == []
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    @pytest.mark.parametrize("stage", ["score", "compare"])
    def test_an_output_in_a_missing_directory_stops_the_stage_before_it_fits(
            self, tmp_path, capsys, synth_file, monkeypatch, stage, fork):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")

        def fit(*args):
            raise AssertionError("the stage fitted before it created its output")

        monkeypatch.setattr(trainer, "_descend", fit)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        before = sorted(tmp_path.rglob("*"))
        target = tmp_path / "nodir" / "x"
        args = {
            "score": ["--dataset", str(synth_file), "--out"],
            "compare": ["--dataset", str(synth_file), "--qds", str(tmp_path / "data.qds"),
                        "--epochs", "1", "--loss-csv"],
        }[stage]
        code, out, err = run(capsys, stage, *args, str(target))
        assert code == EXIT_IO
        assert (out, err) == ("", f"error: file not found: {target}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_stats_rejects_out_of_range_label(self, tmp_path, capsys, synth_file):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        qds_path = tmp_path / "data.qds"
        data = bytearray(qds_path.read_bytes())
        data[35:39] = (99).to_bytes(4, "little")  # record 0's label, 3 classes
        qds_path.write_bytes(bytes(data))
        code, _, err = run(capsys, "stats", "--qds", str(qds_path))
        assert code == EXIT_VALIDATION
        assert "label 99" in err

    def test_stats_and_compare_reject_unknown_flags(self, tmp_path, capsys, synth_file):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        qds_path = tmp_path / "data.qds"
        data = bytearray(qds_path.read_bytes())
        data[30:34] = (0xFFFF).to_bytes(4, "little")  # header flags
        qds_path.write_bytes(bytes(data))
        for argv in (["stats"], ["compare", "--dataset", str(synth_file), "--epochs", "1"]):
            code, _, err = run(capsys, *argv, "--qds", str(qds_path))
            assert code == EXIT_VALIDATION
            assert err == f"error: {qds_path}: unsupported flags 0xffff, expected 1\n"

    @pytest.mark.parametrize("flag", [["--batch-size", "32"], ["--learning-rate", "1"],
                                      ["--momentum", "0"], ["--weight-decay", "0"],
                                      ["--no-normalize"]], ids=lambda flag: flag[0])
    def test_compare_has_no_recipe_flags(self, capsys, synth_file, flag):
        # the SGD recipe is constant: compare takes only --epochs and --seed
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--dataset", str(synth_file), "--qds", "data.qds", *flag])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_names_a_negative_epoch_count(self, capsys, synth_file):
        code, out, err = run(capsys, "compare", "--dataset", str(synth_file),
                             "--qds", "data.qds", "--epochs", "-1")
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: invalid training configuration: epochs -1\n")

    @staticmethod
    def _no_training(*args, **kwargs):
        pytest.fail("compare trained before checking the quantized file")

    @pytest.mark.parametrize("other, message", [
        ("4,16,300,0.5", "class count 4, dataset has 3"),
        ("3,8,300,0.5", "sample shape 1x1x8, dataset has 1x1x16"),
        ("3,16,330,0.5", "sample count 330, dataset has 300"),
    ])
    def test_compare_rejects_qds_of_another_dataset(self, tmp_path, capsys, synth_file,
                                                    monkeypatch, other, message):
        other_file = tmp_path / "other.bin"
        code, _, _ = run(capsys, "ingest", "--synth", other, "--out", str(other_file))
        assert code == EXIT_OK
        self._score_allocate_quantize(tmp_path, capsys, other_file, "8,4")
        monkeypatch.setattr("dsquant.trainer._descend", self._no_training)
        code, _, err = run(capsys, "compare", "--dataset", str(synth_file),
                           "--qds", str(tmp_path / "data.qds"), "--epochs", "1")
        assert code == EXIT_VALIDATION
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1

    def test_compare_rejects_mismatched_label(self, tmp_path, capsys, synth_file,
                                              monkeypatch):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,8")
        qds_path = tmp_path / "data.qds"
        data = bytearray(qds_path.read_bytes())
        data[35:39] = (2).to_bytes(4, "little")  # record 0 is class 0
        qds_path.write_bytes(bytes(data))
        monkeypatch.setattr("dsquant.trainer._descend", self._no_training)
        code, _, err = run(capsys, "compare", "--dataset", str(synth_file),
                           "--qds", str(qds_path), "--epochs", "1")
        assert code == EXIT_VALIDATION
        assert "record 0: quantized file has label 2, dataset has 0" in err

    @pytest.mark.parametrize("fault, message", [
        ("nan-in-last-row", "record 299: sample values must be finite"),
        ("label-out-of-range", "record 299: label 3 out of range for 3 classes"),
    ])
    def test_compare_rejects_a_fault_in_the_last_record(self, tmp_path, capsys, synth_file,
                                                        monkeypatch, fault, message):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        data = bytearray(synth_file.read_bytes())
        labels_at = len(data) - 300 * 4
        if fault == "nan-in-last-row":  # the last value of the last chunk
            data[labels_at - 4:labels_at] = np.float32(np.nan).tobytes()
        else:  # 3 classes
            data[-4:] = (3).to_bytes(4, "little")
        synth_file.write_bytes(bytes(data))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "compare", "--dataset", str(synth_file),
                             "--qds", str(tmp_path / "data.qds"), "--epochs", "1",
                             "--loss-csv", str(out_dir / "loss.csv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {synth_file}: {message}\n")
        assert list(out_dir.iterdir()) == [] and not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_compare_rejects_a_non_finite_row_in_either_split(self, tmp_path, capsys,
                                                              synth_file, monkeypatch, forks,
                                                              split, fork):
        # forked, only the child reads the train rows and the parent reads
        # the test split after its fit; inline, the baseline arm reads first
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        train_idx, test_idx = trainer.stratified_split(dataset.DatasetRows(synth_file).labels,
                                                       42)
        indices = train_idx if split == "train" else test_idx
        row = indices[indices.size // 2]
        data = bytearray(synth_file.read_bytes())
        at = len(data) - 300 * (16 + 1) * 4 + (row * 16 + 5) * 4  # value 5 of the row
        data[at:at + 4] = np.float32(np.nan).tobytes()
        synth_file.write_bytes(bytes(data))
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "compare", "--dataset", str(synth_file),
                             "--qds", str(tmp_path / "data.qds"), "--epochs", "1",
                             "--loss-csv", str(out_dir / "loss.csv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {synth_file}: record {row}: "
                                  "sample values must be finite\n")
        assert len(forks) == int(fork)
        assert list(out_dir.iterdir()) == [] and not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_compare_checks_every_stored_record_as_stats_does(self, tmp_path, capsys,
                                                              synth_file, monkeypatch, forks,
                                                              fork):
        # a bad scale on a record of the test split, which no arm trains on
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        qds_path = tmp_path / "data.qds"
        _, test_idx = trainer.stratified_split(dataset.DatasetRows(synth_file).labels, 42)
        stored = qds.QdsRecords(qds_path)
        record = test_idx[np.flatnonzero(stored.widths[test_idx])[0]]
        data = bytearray(qds_path.read_bytes())
        at = stored.offsets[record] + qds.PREFIX_BYTES
        data[at:at + 4] = np.float32(-1.0).tobytes()
        qds_path.write_bytes(bytes(data))
        message = (f"{qds_path}: record {record}: scale -1.0 is out of range "
                   f"for {stored.widths[record]}-bit codes")
        code, out, err = run(capsys, "stats", "--qds", str(qds_path))
        assert code == EXIT_VALIDATION and (out, err) == ("", f"error: {message}\n")
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "compare", "--dataset", str(synth_file),
                             "--qds", str(qds_path), "--epochs", "1",
                             "--loss-csv", str(out_dir / "loss.csv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {message}\n")
        assert len(forks) == int(fork)
        assert list(out_dir.iterdir()) == [] and not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_compare_reports_divergence_in_the_child(self, tmp_path, capsys, synth_file,
                                                     monkeypatch):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        parent, descend = os.getpid(), trainer._descend

        def diverge_in_child(*args):
            if os.getpid() != parent:  # the baseline arm's process
                trainer.LEARNING_RATE = 1e200
            return descend(*args)

        monkeypatch.setattr(trainer, "_descend", diverge_in_child)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        code, out, err = run(capsys, "compare", "--dataset", str(synth_file),
                             "--qds", str(tmp_path / "data.qds"), "--epochs", "3")
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: training diverged (non-finite loss)\n")

    @pytest.mark.parametrize("when", ["mid-fit", "at-fork"])
    def test_sigterm_kills_and_reaps_the_child(self, tmp_path, capsys, synth_file,
                                               monkeypatch, forks, when):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        parent, fork = os.getpid(), os.fork

        def interrupted_fork():
            pid = fork()
            if pid:  # before the parent holds the child's pid
                signal.raise_signal(signal.SIGTERM)
            return pid

        def interrupted_fit(*args):
            if os.getpid() != parent:
                time.sleep(60)  # the baseline arm, still training when the parent stops
            signal.raise_signal(signal.SIGTERM)

        if when == "at-fork":
            monkeypatch.setattr(os, "fork", interrupted_fork)
        else:
            monkeypatch.setattr(trainer, "_descend", interrupted_fit)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        start = time.monotonic()
        code, out, err = run(capsys, "compare", "--dataset", str(synth_file),
                             "--qds", str(tmp_path / "data.qds"), "--epochs", "50")
        assert code == 128 + signal.SIGTERM
        assert (out, err) == ("", "error: interrupted\n")
        assert len(forks) == 1 and time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):  # killed and reaped, not left running
            os.waitpid(forks[0], os.WNOHANG)

    @staticmethod
    def _fork_score(monkeypatch, child_half):
        """Score in five row chunks, the last three in a forked child
        that runs child_half(*args) in place of each chunk's scoring."""
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        parent, chunk_scores = os.getpid(), sensitivity._chunk_scores

        def scores(*args):
            return chunk_scores(*args) if os.getpid() == parent else child_half(*args)

        monkeypatch.setattr(sensitivity, "_chunk_scores", scores)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)

    @pytest.mark.parametrize("bits", [1, 17])
    def test_score_refuses_a_probe_width_before_reading_or_fitting(self, tmp_path, capsys,
                                                                  synth_file, monkeypatch,
                                                                  forks, bits):
        called = []
        monkeypatch.setattr(dataset, "DatasetRows", lambda *args: called.append("read"))
        monkeypatch.setattr(trainer, "fit_scoring_model", lambda *args: called.append("fit"))
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "score", "--dataset", str(synth_file),
                             "--probe-bits", str(bits), "--out", str(out_dir / "scores.tsv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: bit width must be in [2, 16], got {bits}\n")
        assert called == [] and forks == [] and list(out_dir.iterdir()) == []

    def test_score_refuses_an_empty_dataset_in_one_line(self, tmp_path, capsys):
        (tmp_path / "v.f32le").write_bytes(b"")
        (tmp_path / "l.u32le").write_bytes(b"")
        path = tmp_path / "empty.dsr"
        code, _, _ = run(capsys, "ingest", "--raw", str(tmp_path / "v.f32le"),
                         str(tmp_path / "l.u32le"), "--shape", "1x1x4", "--out", str(path))
        assert code == EXIT_OK
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "score", "--dataset", str(path),
                             "--out", str(out_dir / "scores.tsv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: cannot train on an empty dataset\n")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("field, at", [("height", 14), ("width", 18), ("channels", 22)])
    def test_a_zero_dimension_in_the_dataset_header_names_the_file(self, tmp_path, capsys,
                                                                   synth_file, field, at):
        data = bytearray(synth_file.read_bytes())
        data[at:at + 4] = bytes(4)
        synth_file.write_bytes(bytes(data))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "score", "--dataset", str(synth_file),
                             "--out", str(out_dir / "scores.tsv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {synth_file}: {field} must be a positive integer, "
                                  "got 0\n")
        assert list(out_dir.iterdir()) == []

    def test_score_reports_an_error_in_the_child(self, tmp_path, capsys, synth_file,
                                                 monkeypatch, forks):
        def fail(*args):
            raise ValueError("the child's half failed")

        self._fork_score(monkeypatch, fail)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "score", "--dataset", str(synth_file),
                             "--out", str(out_dir / "scores.tsv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: the child's half failed\n")
        assert len(forks) == 1 and list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_score_rejects_a_file_truncated_after_the_fit(self, tmp_path, capsys, synth_file,
                                                         monkeypatch, forks, fork):
        # the fit gathers every row; the scoring pass reads the file again,
        # a row chunk at a time, and its last chunk (the child's, forked)
        # meets the cut
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
        fit = trainer.fit_scoring_model

        def fit_then_truncate(*args):
            model = fit(*args)
            with open(synth_file, "r+b") as fh:  # cut off the labels and the last value
                fh.truncate(synth_file.stat().st_size - 300 * 4 - 4)
            return model

        monkeypatch.setattr(trainer, "fit_scoring_model", fit_then_truncate)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "score", "--dataset", str(synth_file),
                             "--out", str(out_dir / "scores.tsv"))
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {synth_file}: truncated dataset body\n")
        assert len(forks) == int(fork) and list(out_dir.iterdir()) == []
        for pid in forks:  # reaped, not left running
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
    def test_signal_kills_and_reaps_the_scoring_child(self, tmp_path, capsys, synth_file,
                                                      monkeypatch, forks, signum):
        def stop_parent(*args):
            signal.raise_signal(signum)

        self._fork_score(monkeypatch, lambda *args: time.sleep(60))  # still scoring
        monkeypatch.setattr(sensitivity, "quantize_rows", stop_parent)  # the parent's half
        sigint_handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        start = time.monotonic()
        try:
            code, out, err = run(capsys, "score", "--dataset", str(synth_file),
                                 "--out", str(out_dir / "scores.tsv"))
        except KeyboardInterrupt:  # would stop the test run, not fail a test
            pytest.fail("the interrupt escaped main")
        finally:
            signal.signal(signal.SIGINT, sigint_handler)
        assert code == 128 + signum
        assert (out, err) == ("", "error: interrupted\n")
        assert len(forks) == 1 and time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):  # killed and reaped, not left running
            os.waitpid(forks[0], os.WNOHANG)
        assert list(out_dir.iterdir()) == []

    def _fork_quantize(self, tmp_path, capsys, synth_file, monkeypatch, child_half):
        """Quantize in five row chunks, the last three in a forked child
        that runs child_half(*args) in place of quantize_rows; returns the
        quantize arguments, with an output in an empty directory."""
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,4")
        monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", 64 * 16)  # 64 rows of 16
        parent, quantize_rows = os.getpid(), qds.quantize_rows

        def quantized(*args):
            return quantize_rows(*args) if os.getpid() == parent else child_half(*args)

        monkeypatch.setattr(qds, "quantize_rows", quantized)
        monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
        (tmp_path / "out").mkdir()
        return ("quantize", "--dataset", str(synth_file), "--plan",
                str(tmp_path / "plan.tsv"), "--out", str(tmp_path / "out" / "data.qds"))

    @pytest.mark.parametrize("row", [10, 299], ids=["parent-half", "child-half"])
    def test_quantize_rejects_a_nan_in_either_half(self, tmp_path, capsys, synth_file,
                                                   monkeypatch, forks, row):
        argv = self._fork_quantize(tmp_path, capsys, synth_file, monkeypatch,
                                   qds.quantize_rows)
        data = bytearray(synth_file.read_bytes())
        at = 30 + (row * 16 + 3) * 4  # after the 30-byte header
        data[at:at + 4] = np.float32(np.nan).tobytes()
        synth_file.write_bytes(bytes(data))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", f"error: {synth_file}: record {row}: "
                                  "sample values must be finite\n")
        assert len(forks) == 1 and list((tmp_path / "out").iterdir()) == []

    def test_quantize_reports_an_error_in_the_child(self, tmp_path, capsys, synth_file,
                                                    monkeypatch, forks):
        def fail(*args):
            raise ValueError("the child's half failed")

        argv = self._fork_quantize(tmp_path, capsys, synth_file, monkeypatch, fail)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert (out, err) == ("", "error: the child's half failed\n")
        assert len(forks) == 1 and list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("when", ["mid-encode", "at-fork"])
    def test_sigterm_kills_and_reaps_the_encoding_child(self, tmp_path, capsys, synth_file,
                                                        monkeypatch, forks, when):
        def stop_parent(*args):
            signal.raise_signal(signal.SIGTERM)

        argv = self._fork_quantize(tmp_path, capsys, synth_file, monkeypatch,
                                   lambda *args: time.sleep(60))  # still encoding
        if when == "at-fork":
            fork = os.fork

            def interrupted_fork():
                pid = fork()
                if pid:  # before the parent holds the child's pid
                    stop_parent()
                return pid

            monkeypatch.setattr(os, "fork", interrupted_fork)
        else:
            monkeypatch.setattr(qds, "pack_code_rows", stop_parent)  # the parent's half
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 128 + signal.SIGTERM
        assert (out, err) == ("", "error: interrupted\n")
        assert len(forks) == 1 and time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):  # killed and reaped, not left running
            os.waitpid(forks[0], os.WNOHANG)
        assert list((tmp_path / "out").iterdir()) == []

    def test_quantize_and_stats_print_the_storage_report(self, tmp_path, capsys,
                                                         synth_file):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "8,0")
        qds = tmp_path / "data.qds"
        quantize = ("quantize", "--dataset", str(synth_file),
                    "--plan", str(tmp_path / "plan.tsv"), "--out", str(qds))
        stats = ("stats", "--qds", str(qds))
        out = {}
        for args in (quantize, stats):
            for flags in ((), ("--porcelain",)):
                code, out[args[0], bool(flags)], _ = run(capsys, *flags, *args)
                assert code == EXIT_OK
        kv = porcelain(out["stats", True])
        assert list(kv) == ["payload_bits", "scale_bits", "metadata_bits",
                            "total_bytes", "nominal_ratio", "realized_ratio"]
        assert kv["total_bytes"] == str(qds.stat().st_size)
        assert out["quantize", True] == out["stats", True]
        assert out["quantize", False] == out["stats", False]
        assert out["stats", False] == "".join(f"{k:<14}  {v}\n" for k, v in kv.items())

    def test_stats_porcelain_keys(self, tmp_path, capsys, synth_file):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "16,16")
        code, out, _ = run(capsys, "--porcelain", "stats",
                           "--qds", str(tmp_path / "data.qds"))
        assert code == EXIT_OK
        kv = porcelain(out)
        assert kv["nominal_ratio"] == "0.5"
        assert int(kv["total_bytes"]) == (tmp_path / "data.qds").stat().st_size

    @staticmethod
    def _score_allocate_quantize(tmp_path, capsys, synth_file, bits):
        steps = [
            ("score", "--dataset", str(synth_file), "--probe-bits", "4",
             "--out", str(tmp_path / "scores.tsv")),
            ("allocate", "--scores", str(tmp_path / "scores.tsv"),
             "--bits", bits, "--out", str(tmp_path / "plan.tsv")),
            ("quantize", "--dataset", str(synth_file),
             "--plan", str(tmp_path / "plan.tsv"),
             "--out", str(tmp_path / "data.qds")),
        ]
        for argv in steps:
            code = main(list(argv))
            capsys.readouterr()
            assert code == EXIT_OK

    def test_full_pipeline_16bit_comparability(self, tmp_path, capsys, synth_file):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "16,16")
        code, out, _ = run(capsys, "--porcelain", "compare",
                           "--dataset", str(synth_file),
                           "--qds", str(tmp_path / "data.qds"),
                           "--epochs", "10")
        assert code == EXIT_OK
        assert abs(float(porcelain(out)["accuracy_delta"])) <= 0.01

    def test_compare_loss_csv(self, tmp_path, capsys, synth_file):
        self._score_allocate_quantize(tmp_path, capsys, synth_file, "16,16")
        csv = tmp_path / "loss.csv"
        code, _, _ = run(capsys, "compare", "--dataset", str(synth_file),
                         "--qds", str(tmp_path / "data.qds"),
                         "--epochs", "3", "--loss-csv", str(csv))
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4


def test_commands_are_the_pipeline_stages(capsys):
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == ["ingest", "score", "allocate", "quantize", "stats", "compare"]
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--dataset", "data.dsr"])
    assert exit_info.value.code == 2  # argparse rejects an unknown command
    assert "invalid choice: 'train'" in capsys.readouterr().err


# every stage's arguments and porcelain keys, in pipeline order, each
# stage reading the files of the stages before it
STAGES = {
    "ingest": (["--synth", "3,16,300,0.5", "--seed", "7", "--out", "data.dsr"],
               ["samples", "shape", "classes"]),
    "score": (["--dataset", "data.dsr", "--out", "scores.tsv"], ["samples", "mean_score"]),
    "allocate": (["--scores", "scores.tsv", "--bits", "8,4", "--out", "plan.tsv"],
                 ["samples", "b_avg", "ratio"]),
    "quantize": (["--dataset", "data.dsr", "--plan", "plan.tsv", "--out", "data.qds"],
                 ["payload_bits", "scale_bits", "metadata_bits", "total_bytes",
                  "nominal_ratio", "realized_ratio"]),
    "stats": (["--qds", "data.qds"],
              ["payload_bits", "scale_bits", "metadata_bits", "total_bytes",
               "nominal_ratio", "realized_ratio"]),
    "compare": (["--dataset", "data.dsr", "--qds", "data.qds", "--epochs", "2"],
                ["train_accuracy", "test_accuracy", "baseline_test_accuracy",
                 "accuracy_delta"]),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_human_output_is_the_porcelain_fields_aligned(tmp_path, monkeypatch, capsys, stage):
    monkeypatch.chdir(tmp_path)
    for name, (argv, _) in STAGES.items():
        code, fields, _ = run(capsys, "--porcelain", name, *argv)
        assert code == EXIT_OK
        if name == stage:
            break
    argv, keys = STAGES[stage]
    code, out, err = run(capsys, stage, *argv)  # the same run again, without --porcelain
    assert (code, err) == (EXIT_OK, "")
    pairs = [line.split("=", 1) for line in fields.splitlines()]
    assert [key for key, _ in pairs] == keys
    width = max(map(len, keys))
    assert out == "".join(f"{key:<{width}}  {value}\n" for key, value in pairs)


# every input names a missing file, so a stage that opened one would exit 1
@pytest.mark.parametrize("argv", [
    ["ingest", "--synth", "2,4,20,1", "--seed", "-1", "--out", "data.dsr"],
    ["score", "--dataset", "data.dsr", "--seed", "-1", "--out", "scores.tsv"],
    ["allocate", "--scores", "scores.tsv", "--bits", "4,0", "--prune-ratio", "0.5",
     "--seed", "-3", "--out", "plan.tsv"],
    ["compare", "--dataset", "data.dsr", "--qds", "data.qds", "--seed", "-1"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                             argv):
    monkeypatch.chdir(tmp_path)
    seed = argv[argv.index("--seed") + 1]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        EXIT_VALIDATION, "", f"error: --seed must be a non-negative integer, got {seed}\n")
    assert list(tmp_path.iterdir()) == []


# the smallest pipeline's exact storage: 20 samples of 4 values, whose
# record sizes depend only on the plan's group sizes, not on the scores
@pytest.mark.parametrize("bits, ratio", [("4", "0.20625"), ("16,6,2", "0.071875")])
def test_stats_prints_the_exact_realized_ratio(tmp_path, monkeypatch, capsys, bits, ratio):
    monkeypatch.chdir(tmp_path)
    for stage in (["ingest", "--synth", "2,4,20,1", "--out", "data.dsr"],
                  ["score", "--dataset", "data.dsr", "--out", "scores.tsv"],
                  ["allocate", "--scores", "scores.tsv", "--bits", bits, "--out", "plan.tsv"],
                  ["quantize", "--dataset", "data.dsr", "--plan", "plan.tsv",
                   "--out", "data.qds"]):
        assert run(capsys, *stage)[0] == EXIT_OK
    code, out, _ = run(capsys, "--porcelain", "stats", "--qds", "data.qds")
    assert code == EXIT_OK
    assert porcelain(out)["realized_ratio"] == ratio


def test_raw_ingest_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((5, 4)).astype("<f4")
    labels = np.array([0, 1, 2, 0, 1], dtype="<u4")
    vpath, lpath = tmp_path / "v.f32le", tmp_path / "l.u32le"
    vpath.write_bytes(values.tobytes())
    lpath.write_bytes(labels.tobytes())
    code, out, _ = run(capsys, "--porcelain", "ingest", "--raw", str(vpath),
                       str(lpath), "--shape", "1x1x4", "--num-classes", "3",
                       "--out", str(tmp_path / "d.bin"))
    assert code == EXIT_OK
    assert porcelain(out)["samples"] == "5"

    rows = dataset.DatasetRows(tmp_path / "d.bin")
    np.testing.assert_array_equal(rows.take(np.arange(5), np.float32), values)
    np.testing.assert_array_equal(rows.labels, labels)


@pytest.fixture(scope="module")
def unbounded_classes(tmp_path_factory):
    """A valid dataset file and its QDS file whose header claims 2^32 - 1
    classes for 65,536-element samples: the model alone would take
    2^51 bytes, beyond any 47-bit address space, so the refusal does not
    depend on the host's overcommit setting."""
    root = tmp_path_factory.mktemp("classes")
    rng = np.random.default_rng(0)
    dset = raw_rows(root, rng.standard_normal((10, 1 << 16)).astype(np.float32),
                    np.repeat([0, 7], 5), SampleShape(256, 256, 1), 2 ** 32 - 1)
    write_dataset_file(dset, root / "data.dsr")
    write_qds(dset, AllocationPlan.from_assignments(np.full(10, 8)), root / "data.qds")
    return root


@pytest.mark.parametrize("argv", [["score", "--out", "scores.tsv"],
                                  ["compare", "--qds", "data.qds", "--epochs", "1"]],
                         ids=lambda argv: argv[0])
def test_a_class_count_beyond_memory_is_one_error_line(unbounded_classes, argv):
    # a subprocess with a timeout, so a per-class loop over 2^32 classes
    # fails the test instead of stalling the suite
    package_root = os.path.dirname(os.path.dirname(dsquant.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dsquant.cli", argv[0], "--dataset", "data.dsr", *argv[1:]],
        cwd=unbounded_classes, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_IO
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1
    assert not (unbounded_classes / "scores.tsv").exists()
