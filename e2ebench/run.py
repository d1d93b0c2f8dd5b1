#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver from this checkout and runs it.

Usage, from the root of the checkout:

    python3 e2ebench/run.py --workload psda_checkin --seed 2016 \
        --seconds 10 --trace 0

Workloads: psda_checkin, serve_road, serve_checkin (see README.md). The
driver is configured and built under .bench_build/ on first use; the build
log goes to stderr. The last line of stdout is the run's result as one JSON
object. The exit code is the driver's: 0 when every output check passed.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "pldp_e2ebench"
JOBS = "4"


def build():
    """Configures once, then brings the driver up to date; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"e2ebench: no pldp sources under {ROOT}", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "pldp_e2ebench", "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    return subprocess.run([str(BINARY), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
