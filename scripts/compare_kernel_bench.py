#!/usr/bin/env python3
"""Scalar-vs-SIMD kernel bench comparison for the CI perf gate.

Runs bench_smoke under GC_KERNELS=scalar and GC_KERNELS=simd, merges the
JSON lines into one report (written to the path given by --out, e.g.
BENCH_3.json for PR 3) and fails when the SIMD kernel tier is slower than
the scalar oracle by more than the allowed regression on any case.

Usage:
  python3 scripts/compare_kernel_bench.py --bench build/bench/bench_smoke \
      --out BENCH_3.json [--min-time 0.2] [--max-regression 0.05]
"""

import argparse
import json
import os
import subprocess
import sys


def run_mode(bench, mode, min_time, repeats):
    """Runs the bench `repeats` times; keeps the per-case minimum, the
    standard noise-robust estimator for short benchmarks."""
    cases = {}
    for _ in range(repeats):
        env = dict(os.environ)
        env["GC_KERNELS"] = mode
        env.setdefault("GC_BENCH_MIN_TIME", str(min_time))
        out = subprocess.run([bench], env=env, check=True,
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "error" in rec:
                raise SystemExit(f"bench case {rec.get('bench')} failed "
                                 f"under GC_KERNELS={mode}: {rec['error']}")
            if "us_per_iter" not in rec:
                continue  # cold-start cases use their own schema
            prev = cases.get(rec["bench"])
            if prev is None or rec["us_per_iter"] < prev["us_per_iter"]:
                cases[rec["bench"]] = rec
    return cases


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="path to bench_smoke")
    ap.add_argument("--out", required=True, help="output JSON path")
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="GC_BENCH_MIN_TIME per case (seconds)")
    ap.add_argument("--max-regression", type=float, default=0.05,
                    help="fail if simd is slower than scalar by more than "
                         "this fraction on any case")
    ap.add_argument("--repeats", type=int, default=3,
                    help="bench runs per mode (per-case minimum is kept)")
    args = ap.parse_args()

    scalar = run_mode(args.bench, "scalar", args.min_time, args.repeats)
    simd = run_mode(args.bench, "simd", args.min_time, args.repeats)
    if set(scalar) != set(simd):
        raise SystemExit("scalar and simd runs produced different case "
                         f"sets: {sorted(scalar)} vs {sorted(simd)}")

    any_simd = next(iter(simd.values()))
    report = {
        "bench": "bench_smoke",
        "compare": "GC_KERNELS=scalar vs GC_KERNELS=simd",
        "isa": any_simd.get("isa", "unknown"),
        "threads": any_simd["threads"],
        "max_regression": args.max_regression,
        "cases": [],
    }
    failures = []
    for name in scalar:
        s = scalar[name]["us_per_iter"]
        v = simd[name]["us_per_iter"]
        speedup = s / v if v > 0 else float("inf")
        report["cases"].append({
            "bench": name,
            "scalar_us_per_iter": s,
            "simd_us_per_iter": v,
            "simd_speedup": round(speedup, 3),
        })
        if v > s * (1.0 + args.max_regression):
            failures.append(f"{name}: simd {v:.2f}us vs scalar {s:.2f}us "
                            f"({v / s - 1.0:+.1%})")
    report["cases"].sort(key=lambda c: c["bench"])

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} (isa={report['isa']})")
    for case in report["cases"]:
        print(f"  {case['bench']:24s} scalar {case['scalar_us_per_iter']:10.2f}us"
              f"  simd {case['simd_us_per_iter']:10.2f}us"
              f"  speedup {case['simd_speedup']:.2f}x")
    if failures:
        print("FAIL: simd regressions over the allowed threshold:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
