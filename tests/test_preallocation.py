"""The DSR and QDS writers give their output its final size before any row
is read (dataset.preallocate): once, at exactly that size, with the same
bytes where the filesystem cannot preallocate; a disk or size limit too
small for the output stops the stage before its work with one line naming
--out; a writer that writes more or fewer bytes than it preallocated fails
before the rename; and a stage run onto an existing output writes a fresh
run's bytes."""

import errno
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import dsquant
from dsquant import allocator, dataset, parallel, sensitivity
from dsquant.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

DIM, ROWS, CHUNK_ROWS = 16, 300, 64  # five row chunks
LAST_ROWS = ROWS % CHUNK_ROWS  # the last chunk's, 44
SYNTH = ["--synth", f"3,{DIM},{ROWS},0.5", "--seed", "7"]
WIDTHS = np.resize([8, 4, 0, 16, 2], ROWS)
DSR_BYTES = 30 + ROWS * (DIM + 1) * 4


def qds_bytes(widths):
    """The QDS size of records of widths, each of DIM elements."""
    return 34 + sum(9 + DIM * b // 8 if b else 5 for b in widths.tolist())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def inputs(tmp_path, capsys, monkeypatch):
    """A synth dataset file, read in CHUNK_ROWS-row chunks, a score file
    and a plan of WIDTHS for it."""
    monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", CHUNK_ROWS * DIM)
    data, scores, plan = tmp_path / "data.dsr", tmp_path / "scores.tsv", tmp_path / "plan.tsv"
    assert run(capsys, "ingest", *SYNTH, "--out", str(data))[0] == EXIT_OK
    sensitivity.write_scores(np.linspace(0, 1, ROWS), scores)
    allocator.write_plan(allocator.AllocationPlan.from_assignments(WIDTHS), plan)
    return data, scores, plan


def stage_args(stage, inputs):
    data, scores, plan = inputs
    return {"ingest": ["ingest", *SYNTH],
            "score": ["score", "--dataset", str(data)],
            "allocate": ["allocate", "--scores", str(scores), "--bits", "8,4,0"],
            "quantize": ["quantize", "--dataset", str(data), "--plan", str(plan)]}[stage]


@pytest.fixture
def events(monkeypatch):
    """("fallocate", offset, length) for each os.posix_fallocate call, and
    "rows" as each row source starts to read its rows, in this process."""
    log = []
    fallocate, chunks = os.posix_fallocate, dataset._RowSource.chunks

    def spied_fallocate(fd, offset, length):
        log.append(("fallocate", offset, length))
        fallocate(fd, offset, length)

    def spied_chunks(self, slices=None):
        log.append("rows")  # on the first next(), before the first row is read
        yield from chunks(self, slices)

    monkeypatch.setattr(os, "posix_fallocate", spied_fallocate)
    monkeypatch.setattr(dataset._RowSource, "chunks", spied_chunks)
    return log


@pytest.mark.parametrize("stage, fork", [("ingest", False), ("quantize", False),
                                         ("quantize", True)],
                         ids=["ingest", "quantize-inline", "quantize-forked"])
def test_each_output_is_preallocated_once_at_its_size_before_any_row_is_read(
        tmp_path, capsys, monkeypatch, inputs, events, forks, stage, fork):
    monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
    out = tmp_path / "out"
    code, _, err = run(capsys, *stage_args(stage, inputs), "--out", str(out))
    assert (code, err) == (EXIT_OK, "")
    size = out.stat().st_size
    assert size == (DSR_BYTES if stage == "ingest" else qds_bytes(WIDTHS))
    assert events[0] == ("fallocate", 0, size)
    # then row reads alone: one per half of quantize's chunks in this
    # process, so the forked child's half is not logged
    assert events[1:] == ["rows"] * (1 + (stage == "quantize" and not fork))
    assert len(forks) == fork


@pytest.mark.parametrize("why", ["EOPNOTSUPP", "EINVAL", "ENOSYS", "absent"])
def test_a_filesystem_that_cannot_preallocate_writes_the_same_bytes(
        tmp_path, capsys, monkeypatch, inputs, why):
    def refused(fd, offset, length):
        raise OSError(getattr(errno, why), os.strerror(getattr(errno, why)))

    for stage in ("ingest", "quantize"):
        code, _, _ = run(capsys, *stage_args(stage, inputs), "--out", str(tmp_path / stage))
        assert code == EXIT_OK
    if why == "absent":
        monkeypatch.delattr(os, "posix_fallocate")
    else:
        monkeypatch.setattr(os, "posix_fallocate", refused)
    for stage in ("ingest", "quantize"):
        out = tmp_path / f"{stage}-{why}"
        code, _, err = run(capsys, *stage_args(stage, inputs), "--out", str(out))
        assert (code, err) == (EXIT_OK, "")
        assert out.read_bytes() == (tmp_path / stage).read_bytes()


@pytest.mark.parametrize("why", ["ENOSPC", "EDQUOT", "EFBIG"])
@pytest.mark.parametrize("stage", ["ingest", "quantize"])
def test_a_disk_that_cannot_hold_the_output_stops_the_stage_before_any_row_is_read(
        tmp_path, capsys, monkeypatch, inputs, events, forks, stage, why):
    def full(fd, offset, length):
        events.append(("fallocate", offset, length))
        raise OSError(getattr(errno, why), os.strerror(getattr(errno, why)))

    monkeypatch.setattr(os, "posix_fallocate", full)
    monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: True)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "result"
    code, stdout, err = run(capsys, *stage_args(stage, inputs), "--out", str(out))
    assert code == EXIT_IO
    assert (stdout, err) == ("", f"error: [Errno {getattr(errno, why)}] "
                                 f"{os.strerror(getattr(errno, why))}: '{out}'\n")
    assert len(events) == 1 and events[0][0] == "fallocate"  # no row read, no fork
    assert forks == [] and list(out_dir.iterdir()) == []


@pytest.mark.parametrize("stage", ["ingest", "quantize"])
def test_a_file_size_limit_stops_the_stage_with_one_line_naming_the_output(
        tmp_path, inputs, stage):
    # the CLI in a subprocess whose RLIMIT_FSIZE is below either output's
    # size; Python ignores the SIGXFSZ that exceeding it sends
    limit = 4096
    package_root = os.path.dirname(os.path.dirname(dsquant.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "result"
    proc = subprocess.run(
        [sys.executable, "-m", "dsquant.cli", *stage_args(stage, inputs), "--out", str(out)],
        env=env, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_IO
    assert (proc.stdout, proc.stderr) == (
        "", f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{out}'\n")
    assert list(out_dir.iterdir()) == []


def _changed(source, change):
    """source's row source with its chunk function's (rows, values) chunks
    passed through change, a generator function of their iterator."""
    read = source._chunks
    return dataset._RowSource(source.shape, source.num_classes, np.array(source.labels),
                              lambda slices: change(read(slices)))


def _but_the_last(chunks):
    return (chunk for chunk in chunks if chunk[0].stop < ROWS)


def _the_last_twice(chunks):
    for chunk in chunks:
        yield chunk
    yield chunk


@pytest.mark.parametrize("change, written", [
    (_but_the_last, DSR_BYTES - LAST_ROWS * DIM * 4),
    (_the_last_twice, DSR_BYTES + LAST_ROWS * DIM * 4),
], ids=["fewer-rows", "more-rows"])
def test_a_row_source_that_yields_other_than_its_labels_fails_before_the_rename(
        tmp_path, capsys, monkeypatch, change, written):
    # preallocated, the file has its final size whatever is written, so
    # the readers' size check would not see a short body
    monkeypatch.setattr("dsquant.quantizer.CHUNK_ELEMENTS", CHUNK_ROWS * DIM)
    synth_blobs = dataset.synth_blobs
    monkeypatch.setattr(dataset, "synth_blobs",
                        lambda *args: _changed(synth_blobs(*args), change))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(capsys, "ingest", *SYNTH, "--out", str(out_dir / "data.dsr"))
    assert code == EXIT_VALIDATION
    assert (out, err) == ("", f"error: wrote {written} bytes of a "
                              f"{DSR_BYTES}-byte dataset file\n")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_an_encode_that_skips_a_chunk_fails_before_the_rename(
        tmp_path, capsys, monkeypatch, inputs, forks, fork):
    # the last chunk, which the child encodes when forked
    rows = dataset.DatasetRows
    monkeypatch.setattr(dataset, "DatasetRows",
                        lambda path: _changed(rows(path), _but_the_last))
    monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(capsys, *stage_args("quantize", inputs),
                         "--out", str(out_dir / "data.qds"))
    assert code == EXIT_VALIDATION
    written = qds_bytes(WIDTHS) - qds_bytes(WIDTHS[-LAST_ROWS:]) + 34
    assert (out, err) == ("", f"error: wrote {written} bytes of a "
                              f"{qds_bytes(WIDTHS)}-byte QDS file\n")
    assert len(forks) == fork and list(out_dir.iterdir()) == []


@pytest.mark.parametrize("stage", ["ingest", "score", "allocate", "quantize"])
def test_a_stage_run_onto_an_existing_output_writes_a_fresh_runs_bytes(
        tmp_path, capsys, inputs, stage):
    args = stage_args(stage, inputs)
    fresh, replaced = tmp_path / "fresh", tmp_path / "replaced"
    assert run(capsys, *args, "--out", str(fresh))[0] == EXIT_OK
    # an older, longer and different file at the output path
    replaced.write_bytes(bytes(range(256)) * (fresh.stat().st_size // 128 + 1))
    assert run(capsys, *args, "--out", str(replaced))[0] == EXIT_OK
    assert replaced.read_bytes() == fresh.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))
