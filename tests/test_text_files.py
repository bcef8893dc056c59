"""Score, plan and keep-list files: the shared text codec against the
per-line code it replaced, its checks, and hostile input."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsquant.allocator import (
    AllocationConfig,
    allocate,
    read_keep_list,
    read_plan,
    write_plan,
)
from dsquant.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from dsquant.dataset import synth_blobs, write_dataset_file
from dsquant.sensitivity import read_scores, write_scores


def reference_write_scores(scores, path):
    with open(path, "w") as fh:
        for i, s in enumerate(scores):
            fh.write(f"{i}\t{s:.9g}\n")


def reference_write_plan(plan, path):
    with open(path, "w") as fh:
        fh.write(f"{len(plan)} {plan.b_avg:.9g} {plan.compression_ratio:.9g}\n")
        for i, b in enumerate(plan.assignments):
            fh.write(f"{i}\t{int(b)}\n")


def reference_read_scores(path):
    indices, values = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                idx, val = line.split("\t")
                indices.append(int(idx))
                values.append(float(val))
    assert indices == list(range(len(indices)))
    return np.asarray(values, dtype=np.float64)


def reference_read_plan(path):
    with open(path) as fh:
        n = int(fh.readline().split()[0])
        rows = [line.split("\t") for line in fh if line.strip()]
    assert [int(i) for i, _ in rows] == list(range(n))
    return np.asarray([int(b) for _, b in rows], dtype=np.int32)


def sample_scores(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(n) * 2.0 * rng.choice([1.0, 1e-3, 1e-9], size=n)
    scores[::5] = 0.0  # exact fidelity scores exactly zero
    scores[1::7] = 1.999999999
    return scores


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_files_and_arrays_match_reference_code(tmp_path, n):
    scores = sample_scores(n, seed=n)
    plan = allocate(scores, AllocationConfig((16, 8, 2, 0)), seed=n)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write_scores(scores, ours)
    reference_write_scores(scores, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    assert np.array_equal(read_scores(theirs), reference_read_scores(theirs))

    write_plan(plan, ours)
    reference_write_plan(plan, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    again = read_plan(theirs)
    assert np.array_equal(again.assignments, reference_read_plan(theirs))
    assert again.b_avg == plan.b_avg


def test_empty_lines_are_skipped(tmp_path):
    path = tmp_path / "f"
    path.write_text("\n0\t0.5\n\n1\t0.25\n\n")
    assert read_scores(path).tolist() == [0.5, 0.25]
    path.write_text("2 4 0.875\n\n0\t8\n\n1\t0\n")
    assert read_plan(path).assignments.tolist() == [8, 0]
    path.write_text("\n4\n\n2\n")
    assert read_keep_list(path).tolist() == [2, 4]


def test_finite_scores_outside_the_cosine_range_are_read(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t2.5\n1\t-1\n")
    assert read_scores(path).tolist() == [2.5, -1.0]


@pytest.mark.parametrize("reader, text, message", [
    (read_scores, "0\t0.5\n1.0\t0.5\n", "'1.0'"),
    (read_scores, "0\t0.5\n2\t0.5\n", "entry 1 has index 2"),
    (read_scores, "0 0.5\n", "columns"),
    (read_scores, "0\t0.5\t1\n", "columns"),
    (read_scores, "0\tnan\n", "score at index 0 is not finite"),
    (read_plan, "", "malformed header"),
    (read_plan, "2 8\n0\t8\n1\t8\n", "malformed header"),
    (read_plan, "2 8 0.75\n0\t8\n", "expected 2 assignments, found 1"),
    (read_plan, "2 8 0.75\n1\t8\n0\t8\n", "entry 0 has index 1"),
    (read_plan, "2 8 0.75\n0\t8\n1\t1\n", "invalid bit width 1"),
    (read_plan, "2 8 0.75\n0\t17\n1\t8\n", "invalid bit width 17"),
    (read_plan, "2 8 0.75\n0\t8\n1\t8.0\n", "'8.0'"),
    (read_keep_list, "3\n4.0\n", "'4.0'"),
    (read_keep_list, "3\t4\n", "columns"),
])
def test_malformed_file_is_one_line_error_naming_it(tmp_path, reader, text, message):
    path = tmp_path / "f"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)
    assert "\n" not in str(info.value)


# Hostile input: truncate, bit-flip or splice a valid file.

N_SAMPLES = 30


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid dataset, score, plan and keep-list files for N_SAMPLES samples."""
    root = tmp_path_factory.mktemp("valid")
    dataset = synth_blobs(3, 8, N_SAMPLES // 3, 0.5, seed=1)
    write_dataset_file(dataset, root / "data.bin")
    scores = sample_scores(N_SAMPLES, seed=2)
    write_scores(scores, root / "scores.tsv")
    write_plan(allocate(scores, AllocationConfig((8, 4))),
               root / "plan.tsv")
    (root / "keep.txt").write_text("".join(f"{i}\n" for i in range(0, N_SAMPLES, 3)))
    return root


KINDS = ("scores.tsv", "plan.tsv", "keep.txt")


def mutate(data: bytes, other: bytes, how: str, at: int, to: int, bit: int) -> bytes:
    at, to = at % (len(data) + 1), to % (len(other) + 1)
    if how == "truncate":
        return data[:at]
    if how == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]
    return data[:at] + other[to:]  # splice


hostile = dict(
    kind=st.sampled_from(KINDS),
    other=st.sampled_from(KINDS),
    how=st.sampled_from(("truncate", "flip", "splice")),
    at=st.integers(0, 1 << 16),
    to=st.integers(0, 1 << 16),
    bit=st.integers(0, 7),
)
fuzz = settings(max_examples=150, deadline=None)


def hostile_copy(valid, kind, other, how, at, to, bit):
    data = mutate((valid / kind).read_bytes(), (valid / other).read_bytes(), how, at, to, bit)
    path = valid / f"hostile-{kind}"
    path.write_bytes(data)
    return path


@fuzz
@given(**hostile)
def test_readers_raise_only_value_error(valid, kind, other, how, at, to, bit):
    path = hostile_copy(valid, kind, other, how, at, to, bit)
    reader = {"scores.tsv": read_scores, "plan.tsv": read_plan,
              "keep.txt": read_keep_list}[kind]
    try:
        reader(path)
    except ValueError as exc:
        assert "\n" not in str(exc)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@fuzz
@given(**hostile)
@example(kind="plan.tsv", other="plan.tsv", how="flip", at=0, to=0, bit=0)  # "30" -> "20"
def test_cli_fails_with_one_error_line(valid, kind, other, how, at, to, bit):
    path = hostile_copy(valid, kind, other, how, at, to, bit)
    out = str(valid / "out")
    if kind == "plan.tsv":
        argv = ["quantize", "--dataset", str(valid / "data.bin"), "--plan", str(path)]
    elif kind == "scores.tsv":
        argv = ["allocate", "--scores", str(path), "--bits", "8,4"]
    else:
        argv = ["allocate", "--scores", str(valid / "scores.tsv"), "--bits", "8,4",
                "--keep-list", str(path)]
    code, err = run_cli(*argv, "--out", out)
    assert code in (EXIT_OK, EXIT_IO, EXIT_VALIDATION)
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1
