"""The ledger of the perf records: one line per BENCH_*.json at the repo root.

    python3 tools/bench_ledger.py

Each line names a record, its claimed workload and metric, the parent's and
the change's value with the change in percent, and how many parent/change
pairs the record keeps for that workload ("no pairs kept" when it keeps
none; then the two values are read from the claim's result text). Records
come in the order they were first committed; a record git does not know, or
every record when git cannot be run, comes after them by name.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# "0.9731 -> 0.899551" in a claim's result text
BEFORE_AFTER = re.compile(r"(\d+(?:\.\d+)?) -> (\d+(?:\.\d+)?)")


def commit_order(root: pathlib.Path) -> list[str]:
    """The names of the BENCH_*.json files, oldest commit first, as git adds them."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "log", "--reverse", "--diff-filter=A", "--format=",
             "--name-only", "--", "BENCH_*.json"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    return list(dict.fromkeys(line for line in out.splitlines() if line))


def ledger_line(name: str, record: dict) -> str:
    claim = record["claim"]
    if not isinstance(claim, dict):
        return f"{name}  no claim"
    workload, metric = claim["workload"], claim["metric"]
    kept = record.get("workloads", {}).get(workload, {})
    if "pairs" in kept:
        before, after = claim["before"], claim["after"]
        pairs = f"{len(kept['pairs'])} pairs"
    else:
        before, after = map(float, BEFORE_AFTER.search(claim["result"]).groups())
        pairs = "no pairs kept"
    change = 100.0 * (after / before - 1.0)
    return f"{name}  {workload}  {metric}  {before} -> {after} ({change:+.1f}%)  {pairs}"


def main(root: pathlib.Path = ROOT) -> int:
    names = sorted(path.name for path in root.glob("BENCH_*.json"))
    committed = [name for name in commit_order(root) if name in names]
    for name in committed + [name for name in names if name not in committed]:
        print(ledger_line(name, json.loads((root / name).read_text(encoding="utf-8"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
