#!/usr/bin/env python3
"""Builds the warehouse from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set, else to .bench_build at
the repository root. Build output goes to stderr; the last line of stdout is
the benchmark's JSON result. Any failure (missing sources, build error,
crash, timeout) exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "churn", "fleet")
# Every run must end within 180 s; this leaves room to clean up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no warehouse sources under src/\n")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "cbfww_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % cmd)
            return None
    binary = os.path.join(bdir, "cbfww_perfbench")
    return binary if os.path.isfile(binary) else None


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", work]
    # Own process group: forked warehouse nodes are reaped with the
    # benchmark process even if it has to be killed.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        else:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
