#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at about 1% of each workload's users.

Usage, from the root of the checkout:

    python3 e2ebench/selftest.py

For every workload of BENCHMARK.json it checks that
  - the untraced run prints every end-to-end metric, and the traced run every
    per-layer metric, by name and unit in BENCHMARK.json's order, and passes
    its output checks (correct, failed = 0, exit 0);
  - every end-to-end value is a positive finite number;
  - flipping one bit of a published estimate fails the check: exit 1,
    correct = false and failed = attempted (failed_frac = 1).
It also checks that run.py, copied without the library sources, exits
non-zero without printing a result. Exits 1 when any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FRACTION = "0.01"

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "2016", "--seconds", "1", "--trace", str(trace),
           "--user-fraction", FRACTION, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_metrics(label, result, declared, positive):
    got = list(result["metrics"]) if result else []
    check(got == [m["name"] for m in declared],
          f"{label}: prints exactly the declared metrics, in order")
    for m in declared:
        entry = (result or {}).get("metrics", {}).get(m["name"])
        value = entry.get("value") if entry else None
        ok = (entry is not None and entry.get("unit") == m["unit"] and
              isinstance(value, (int, float)) and math.isfinite(value) and
              (value > 0 or not positive))
        if not ok:
            check(False, f"{label}: {m['name']} = {entry}")


def check_workload(spec, workload):
    code, result = run(workload, 0)
    check(code == 0 and result is not None and result["correct"] and
          result["failed"] == 0, f"{workload}: untraced run passes its checks")
    check_metrics(f"{workload} untraced", result, spec["end_to_end"], True)

    code, result = run(workload, 1)
    check(code == 0 and result is not None and result["correct"] and
          result["failed"] == 0, f"{workload}: traced run passes its checks")
    check_metrics(f"{workload} traced", result, spec["per_layer"], False)

    code, result = run(workload, 0, "--flip-bit")
    check(code == 1 and result is not None and not result["correct"] and
          result["failed"] == result["attempted"] >= 1,
          f"{workload}: a flipped bit fails the check, failed_frac = 1")


def check_without_sources():
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=build))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "serve_road", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "without library sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
