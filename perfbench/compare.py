"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them, as run.py writes
to .perfbench-out/results/. Records are grouped by workload and trace
mode, and each metric's median over the records is compared. Records
whose environment blocks differ are refused (exit 2): their numbers
were taken under a different interpreter, BLAS, core count or kernel.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END, ROOT


def load(arg) -> list:
    path = Path(arg)
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(p.read_text()) for p in paths]


def medians(records) -> dict:
    values = {}
    for r in records:
        for name, m in r["metrics"].items():
            if m["value"] is not None:
                values.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return {key: (statistics.median(v), len(v)) for key, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE NEW", file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no records to compare", file=sys.stderr)
        return 2
    reference = base[0]["environment"]
    for record in base + new:
        env = record["environment"]
        if env != reference:
            diff = {k: (reference.get(k), env.get(k))
                    for k in reference.keys() | env.keys()
                    if reference.get(k) != env.get(k)}
            print(f"refused: environment blocks differ: {diff}", file=sys.stderr)
            return 2

    spec = ROOT / "BENCHMARK.json"
    bounds = ({m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
              if spec.is_file() else {})
    before, after = medians(base), medians(new)
    for key in sorted(before.keys() & after.keys()):
        workload, trace, name = key
        (b, nb), (a, na) = before[key], after[key]
        change = (a - b) / b if b else 0.0
        line = f"{workload:16} {name:32} {b:12.6g} (n={nb}) -> {a:12.6g} (n={na}) {change:+8.2%}"
        if name in END_TO_END and name in bounds:
            worse = change if END_TO_END[name][1] == "lower" else -change
            verdict = "REGRESSED" if worse > bounds[name] else "ok"
            line += f"  bound {bounds[name]:.0%} {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
