"""Self-check of the benchmark itself, at a tiny run length.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, in-process, with short
fits and sessions, and checks that:

- every metric BENCHMARK.json names is emitted, with its unit, and no other;
- spans nest: each lies inside its parent and belongs to the same operation;
- self times add up to the traced wall time;
- the untraced and traced runs agree on every digest.

It checks the benchmark, not lrco: a failing lrco check (such as a known
defect in monitor_resume) is reported by the run, not here. Exits 1
if any self-check fails.
"""

from __future__ import annotations

import json
import math
import sys

import run
from spans import SpanTable
from workloads import TINY

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec: dict, name: str, trace: bool) -> list[str]:
    lines, result, tracer = run.run(name, seed=0, seconds=0, trace=trace, scale=TINY)
    kind = "per_layer" if trace else "end_to_end"
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = result["metrics"]
    for metric, unit in wanted.items():
        got = emitted.get(metric)
        if got is None:
            problems.append(f"{metric} not emitted")
        elif got["unit"] != unit or not math.isfinite(got["value"]):
            problems.append(f"{metric} = {got}, expected unit {unit}")
    problems += [f"{metric} emitted but not in BENCHMARK.json"
                 for metric in set(emitted) - set(wanted)]
    digest_checks = [line for line in lines if line.startswith("check traced and untraced")]
    if not digest_checks:
        problems.append("no traced/untraced digest comparison ran")
    problems += [line for line in digest_checks if ": PASS" not in line]
    if trace:
        table = SpanTable(tracer)
        problems += table.nesting_errors()
        self_sum, wall = float(table.self_time.sum()), table.roots_wall()
        if not math.isclose(self_sum, wall, rel_tol=1e-9):
            problems.append(f"self times sum to {self_sum!r}, traced wall is {wall!r}")
    return [f"{name} trace={int(trace)}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            found = check_run(spec, name, trace)
            print(f"selfcheck {name} trace={int(trace)}: {'FAIL' if found else 'PASS'}")
            problems += found
    for problem in problems:
        print(f"  {problem}")
    print(f"selfcheck {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
