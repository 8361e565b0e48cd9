#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the gc library and the benchmark driver from this checkout's sources
(CMake, Release) into .bench_build/perfbench, runs one workload in its own
process and prints its provenance line and, as the last line of stdout, the
result object {"correct", "attempted", "failed", "metrics"}. A table of
every metric (fail_frac included) goes to stderr. Exits non-zero, printing
no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
EXE = os.path.join(BUILD, "gc_perfbench")
WORKLOADS = ("bert_int8", "dlrm_f32", "serve_mlp1_int8", "cold_start")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gc_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.exists(EXE)


def source_hash():
    """SHA-256 over the library and benchmark sources (path and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # Library knobs come from GC_* variables; the benchmark fixes every
    # setting itself, so none may leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GC_")}
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--commit", commit(), "--source", source_hash()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {done.returncode})",
              file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    with open(os.path.join(OUT, "results.jsonl"), "a") as log:
        log.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
