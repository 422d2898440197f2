#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload bimodal-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr. The binary's stdout is
passed through, so the last line is its JSON result. The exit status is the
binary's: 0 only when every correctness check passed.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(command, timeout):
    """Runs one build step with its output on stderr; fails on error.

    The step runs in its own process group so that a timeout also stops the
    compilers it started.
    """
    try:
        step = subprocess.Popen(command, stdout=sys.stderr, stderr=sys.stderr,
                                start_new_session=True)
    except OSError as error:
        fail(f"build step failed: {' '.join(command)}: {error}")
    try:
        status = step.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(step.pid, signal.SIGKILL)
        step.wait()
        fail(f"build step timed out after {timeout} s: {' '.join(command)}")
    if status != 0:
        fail(f"build step failed with status {status}: {' '.join(command)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/ next to perfbench/ under {ROOT}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
             BUILD_TIMEOUT_S)


def main(argv):
    build()
    try:
        completed = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    if completed.returncode != 0 or "--selftest" in argv:
        return completed.returncode
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no JSON result line")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result line: {lines[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
