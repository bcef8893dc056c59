"""The benchmark's own tests, at a tiny size.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import pipeline as pl  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_runs_end_to_end(trace, kind):
    result = run_bench("--workload", "small_records", "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--scale", "0.01")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 8
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_trace_accounts_for_each_stage():
    run_bench("--workload", "small_records", "--seed", "4", "--seconds", "1",
              "--trace", "1", "--scale", "0.01")
    record = json.loads((ROOT / ".perfbench-out" / "results"
                         / "small_records-seed4-trace1.json").read_text())
    spans = {s["id"]: s for s in record["spans"]}
    for span in spans.values():
        parent = spans.get(span["parent"])
        if span["parent"] is not None:
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    stages = {s["name"] for s in spans.values() if s["parent"] is None}
    assert {f"stage.{s}" for s in ("ingest",) + pl.PASS_STAGES} <= stages
    for stage, acc in record["accounting"].items():
        assert acc["children_s"] > 0, stage
        total = acc["children_s"] + acc["self_s"] + acc["overhead_s"]
        assert total == pytest.approx(acc["wall_s"])


def test_flipped_payload_byte_fails_the_qds_check(tmp_path):
    env = pl.program_env(ROOT / "src")
    workload = WORKLOADS["small_records"]
    source = workload.make_source(5, tmp_path, 0.01)
    files = {role: str(tmp_path / role) for role in ("dsr", "scores", "plan", "qds")}
    assert pl.run_stage("ingest", [*source.ingest_args, "--out", files["dsr"]],
                        env, tmp_path, 60).ok
    for stage in ("score", "allocate", "quantize"):
        args = pl.stage_args(stage, files, workload.allocate_args)
        assert pl.run_stage(stage, args, env, tmp_path, 60).ok
    widths = pl.read_plan_file(files["plan"], source.labels.size)
    assert pl.check_qds(files["qds"], files["dsr"], widths) == []

    data = bytearray(Path(files["qds"]).read_bytes())
    data[34 + 5 + 4] ^= 0xFF  # first payload byte of record 0, which is kept
    Path(files["qds"]).write_bytes(bytes(data))
    assert pl.check_qds(files["qds"], files["dsr"], widths)


@pytest.mark.parametrize("baseline, failing", [
    (0.55, False), (1.0, True), (0.1, True),
])
def test_degeneracy_guard(baseline, failing):
    fields = {"train_accuracy": "0.9", "test_accuracy": str(baseline),
              "baseline_test_accuracy": str(baseline), "accuracy_delta": "0"}
    assert bool(pl.check_compare(fields, True, 10, 2000)) == failing
    assert not pl.check_compare(fields, False, 10, 2000)


def test_compare_refuses_differing_environments(tmp_path):
    def record(name, kernel):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "small_records", "trace": 0,
            "environment": {"native_kernel": kernel},
            "metrics": {"score_s": {"value": 1.0, "unit": "s"}}}))
        return str(path)

    assert compare.main([record("a.json", False), record("b.json", False)]) == 0
    assert compare.main([record("a.json", False), record("c.json", True)]) == 2
