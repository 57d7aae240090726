#!/usr/bin/env python3
"""Builds and runs the dnnspmv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library is built by the repository's own
CMake project and the driver by perfbench/CMakeLists.txt, both under
.bench_build/ (build logs land there too). The driver's arithmetic tests run
before every measurement. The driver's standard output is passed through;
its last line is the result JSON. Traced runs (--trace 1) also write a
chrome trace and the obs registry export to .bench_build/perfbench-out/.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "dnnspmv"
DRIVER_BUILD = BUILD / "perfbench"
OUT_DIR = BUILD / "perfbench-out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def step(args, log, timeout):
    """Runs one build step, appending its output to `log`."""
    with open(log, "ab") as out:
        try:
            done = subprocess.run(args, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(map(str, args))}")
    if done.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"failed: {' '.join(map(str, args))} (log: {log})")


def generator():
    return ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], capture_output=True).returncode == 0 else []


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no dnnspmv sources here; run from the repository root")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    gen = generator()
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", ROOT, "-B", LIB_BUILD, *gen,
              "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    step(["cmake", "--build", LIB_BUILD, "--target", "dnnspmv_serve",
          "-j", jobs], log, BUILD_TIMEOUT_S)
    if not (DRIVER_BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", ROOT / "perfbench", "-B", DRIVER_BUILD, *gen,
              "-DCMAKE_BUILD_TYPE=Release", f"-DDNNSPMV_SOURCE_DIR={ROOT}",
              f"-DDNNSPMV_BUILD_DIR={LIB_BUILD}"], log, BUILD_TIMEOUT_S)
    step(["cmake", "--build", DRIVER_BUILD, "-j", jobs], log, BUILD_TIMEOUT_S)
    step([DRIVER_BUILD / "perfbench_tests", "--gtest_brief=1"],
         BUILD / "tests.log", 60)


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    build()
    OUT_DIR.mkdir(exist_ok=True)
    args = [DRIVER_BUILD / "perfbench", *sys.argv[1:], "--git-sha", git_sha(),
            "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(args, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
