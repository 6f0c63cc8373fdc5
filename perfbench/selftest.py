"""Toy-scale self-test of every workload, untraced and traced.

Runs ``perfbench/run.py`` as a subprocess, exactly as the benchmark is run
for measurements, and checks that each run exits 0 and that its last line is a
correct result carrying every metric that ``BENCHMARK.json`` names for
the mode.  Usage, from the repository root::

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads


def _problems(result: dict, expected: dict) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("outputs failed their checks")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"metric names differ: {sorted(set(metrics) ^ set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main(root: Path, expected: dict) -> int:
    """Run every workload in both modes; ``expected`` maps the trace
    mode to the metric names and units the result must carry."""
    failures = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(root / "perfbench" / "run.py"),
                "--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "toy",
            ]
            run = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, timeout=600
            )
            if run.returncode != 0:
                problems = [f"exit code {run.returncode}: {run.stderr[-500:]}"]
            else:
                last = run.stdout.strip().splitlines()[-1]
                problems = _problems(json.loads(last), expected[trace])
            status = "ok" if not problems else "FAIL"
            print(f"{status:<5}{name:<12}trace={trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    print("self-test " + ("passed" if not failures else f"{failures} failed"))
    return 1 if failures else 0
