#!/usr/bin/env python3
"""Build and run the study benchmark for one workload.

Usage, from the root of a checkout:

    python3 studybench/run.py --workload inject|profile|baseline \
        --seed N --seconds S --trace 0|1 [--smoke]

The first call configures and builds studybench/ (the SASSI library
from src/ plus the study_bench program) into .bench_build/studybench;
later calls only re-check the build. Build output goes to stderr.
study_bench's stdout is passed through, and its last line, the
result object {"correct", "attempted", "failed", "metrics"}, is
checked and printed last. Any failure exits non-zero without
printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "studybench")

# Per-invocation limits: the build may take long once; a run must
# leave time for the caller's own 180 s limit.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 165


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole
    group (make's compilers included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configure (once) and build; return the study_bench path."""
    steps = [["cmake", "--build", BUILD, "-j", jobs(), "--target",
              "study_bench"]]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return os.path.join(BUILD, "study_bench")


def check_result(line):
    """Parse and validate study_bench's result line."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a non-negative integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric %s has keys %s" % (name, sorted(metric)))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["inject", "profile", "baseline"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-size plan, one round run twice")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        print("study benchmark: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("study benchmark: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        print("study benchmark: study_bench exited with %d" % code,
              file=sys.stderr)
        return 1
    try:
        result = check_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(out)
        print("study benchmark: bad result line: %s" % e, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
