"""Hostile DSR and QDS files: truncate, bit-flip or splice a small valid
file, then run every reader and the stages that read it."""

import contextlib
import io
import resource

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import every_row, hostile_copy, hostile_files, raw_rows, read_rows, take_rows

from dsquant.allocator import AllocationPlan, write_plan
from dsquant.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from dsquant.dataset import synth_blobs, write_dataset_file
from dsquant.qds import (
    HEADER_BYTES,
    PREFIX_BYTES,
    QdsRecords,
    materialize_training_set,
    read_qds,
    storage_report,
    write_qds,
)
from dsquant.quantizer import is_valid_bit_width, max_code

N_SAMPLES = 30
WIDTHS = (2, 8, 0, 4, 16, 12)  # record i is stored at WIDTHS[i % 6] bits

DSR_CLASS_COUNT_HIGH_BYTE = 29  # the last byte of the u32 at offset 26
RECORD_0_SCALE_HIGH_BYTE = HEADER_BYTES + PREFIX_BYTES + 3


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid dataset file, a plan at every kind of width and the QDS
    file of the two. Record 0 is stored at 2 bits, so its scale is its
    largest |value|, here scaled into (1, 2): the float32 exponent is 127
    and the mantissa nonzero, so flipping bit 6 of the scale's high byte
    gives exponent 255, a NaN."""
    root = tmp_path_factory.mktemp("valid")
    blobs = synth_blobs(3, 8, N_SAMPLES // 3, 0.5, seed=1)
    values = every_row(blobs)
    values *= np.float32(1.25 / np.abs(values[0]).max())
    dataset = raw_rows(root, values, blobs.labels, blobs.shape, blobs.num_classes)
    write_dataset_file(dataset, root / "data.dsr")
    plan = AllocationPlan.from_assignments(np.resize(WIDTHS, N_SAMPLES))
    write_plan(plan, root / "plan.tsv")
    write_qds(dataset, plan, root / "data.qds")
    records, _ = read_qds(root / "data.qds")
    assert records[0].bit_width == 2 and 1 < records[0].scale < 2
    return root


KINDS = ("data.dsr", "data.qds")
hostile = hostile_files(KINDS)
fuzz = settings(max_examples=150, deadline=None)


def check_records(path):
    """read_qds returns only records the writer can produce."""
    records, header = read_qds(path)
    for record in records:
        if record is None:
            continue
        assert is_valid_bit_width(record.bit_width) and record.bit_width > 0
        assert np.abs(record.codes).max(initial=0) <= max_code(record.bit_width)
        assert np.isfinite(record.scale) and record.scale > 0
        assert 0 <= record.label < header.num_classes


@fuzz
@given(**hostile)
@example(kind="data.qds", other="data.qds", how="flip",
         at=RECORD_0_SCALE_HIGH_BYTE, to=0, bit=6)  # record 0's scale -> NaN
def test_readers_raise_only_value_error(valid, kind, other, how, at, to, bit):
    path = hostile_copy(valid, kind, other, how, at, to, bit)
    readers = ((take_rows, read_rows) if kind == "data.dsr" else
               (QdsRecords, check_records, storage_report, materialize_training_set))
    for reader in readers:
        try:
            reader(path)
        except ValueError as exc:  # QdsFormatError included
            assert "\n" not in str(exc)


@contextlib.contextmanager
def address_space_of_at_most(extra_bytes):
    """Cap this process's address space at its current size plus
    extra_bytes. A flipped class count can size the model anywhere up to
    2^32 classes; under the cap an oversized model fails at once with
    MemoryError, whatever the host's overcommit setting, instead of
    paging in gigabytes first."""
    with open("/proc/self/status") as fh:
        size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    previous = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + extra_bytes, previous[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, previous)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          address_space_of_at_most(256 << 20)):
        code = main(list(argv))
    return code, err.getvalue()


STAGES = {
    "data.dsr": ("score", "quantize", "compare"),
    "data.qds": ("stats", "compare"),
}


@fuzz
@given(stage=st.integers(0, 2), **hostile)
@example(stage=0, kind="data.dsr", other="data.dsr", how="flip",
         at=DSR_CLASS_COUNT_HIGH_BYTE, to=0, bit=7)  # score with 2^31 + 3 classes
def test_cli_fails_with_one_error_line(valid, stage, kind, other, how, at, to, bit):
    path = hostile_copy(valid, kind, other, how, at, to, bit)
    stages = STAGES[kind]
    dsr, qds = (path, valid / "data.qds") if kind == "data.dsr" else (valid / "data.dsr", path)
    argv = {
        "score": ["score", "--dataset", dsr, "--out", valid / "out"],
        "quantize": ["quantize", "--dataset", dsr, "--plan", valid / "plan.tsv",
                     "--out", valid / "out"],
        "stats": ["stats", "--qds", qds],
        "compare": ["compare", "--dataset", dsr, "--qds", qds, "--epochs", "1"],
    }[stages[stage % len(stages)]]
    code, err = run_cli(*map(str, argv))
    assert code in (EXIT_OK, EXIT_IO, EXIT_VALIDATION)
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1
