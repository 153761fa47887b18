#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark binary (and the tora libraries it links) from the
source tree this directory sits in, then runs one workload:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to .bench_build/ there; the
first run compiles (about a minute on four cores), later runs reuse it. The
last line of stdout is the binary's JSON result; see perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY_DIR = BUILD / "perfbench"
WORKLOADS = ("paper_grid", "proto_topeft")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no tora source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BINARY_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BINARY_DIR),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BINARY_DIR), "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build failed (see {log_path})")
    return BINARY_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.tsv")]
    start = time.monotonic()
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stderr.write(f"perfbench: run took {time.monotonic() - start:.1f} s\n")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
