#!/usr/bin/env python3
"""Verification-overhead bench guard for the CI perf gate.

Runs bench_smoke under GC_VERIFY=off and GC_VERIFY=all (same build,
same graphs: the verifiers run at compile time only, so steady-state
execution must be unaffected), merges the JSON lines into one report and
fails when:

  * any case executes slower under GC_VERIFY=all than GC_VERIFY=off
    beyond the allowed noise margin ("static verification is free at
    execution time" as a tested property), or
  * any case COMPILES slower under GC_VERIFY=all than under
    GC_VERIFY=off by more than --max-compile-ratio (default 5x): the
    symbolic bounds engine, the race proof and the arena re-check may
    cost a few compiles' worth, but must not blow up combinatorially.

Usage:
  python3 scripts/compare_verify_bench.py --bench build/bench/bench_smoke \
      [--out BENCH_VERIFY.json] [--min-time 0.2] [--max-regression 0.05]
"""

import argparse
import json
import os
import subprocess
import sys


def run_mode(bench, level, min_time, repeats):
    """Runs the bench `repeats` times; keeps the per-case minimum of
    us_per_iter and compile_us, the standard noise-robust estimator for
    short benchmarks."""
    cases = {}
    for _ in range(repeats):
        env = dict(os.environ)
        env["GC_VERIFY"] = level
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
                                 f"under GC_VERIFY={level}: {rec['error']}")
            if "us_per_iter" not in rec:
                continue  # coldstart cases report cold/warm times instead
            prev = cases.get(rec["bench"])
            if prev is None:
                cases[rec["bench"]] = rec
                continue
            if rec["us_per_iter"] < prev["us_per_iter"]:
                prev["us_per_iter"] = rec["us_per_iter"]
            if ("compile_us" in rec and "compile_us" in prev
                    and rec["compile_us"] < prev["compile_us"]):
                prev["compile_us"] = rec["compile_us"]
    return cases


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="path to bench_smoke")
    ap.add_argument("--out", default=None, help="optional output JSON path")
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="GC_BENCH_MIN_TIME per case (seconds)")
    ap.add_argument("--max-regression", type=float, default=0.05,
                    help="fail if GC_VERIFY=all executes slower than "
                         "GC_VERIFY=off by more than this fraction")
    ap.add_argument("--repeats", type=int, default=3,
                    help="bench runs per mode (per-case minimum is kept)")
    ap.add_argument("--abs-slack-us", type=float, default=1.0,
                    help="ignore regressions smaller than this many "
                         "microseconds: on sub-2us cases one scheduler "
                         "blip exceeds any ratio threshold")
    ap.add_argument("--max-compile-ratio", type=float, default=5.0,
                    help="fail if GC_VERIFY=all compiles slower than "
                         "GC_VERIFY=off by more than this factor")
    ap.add_argument("--compile-slack-us", type=float, default=500.0,
                    help="ignore compile-time deltas smaller than this "
                         "many microseconds (cache-hit compiles are "
                         "sub-ms and pure scheduler noise)")
    args = ap.parse_args()

    off = run_mode(args.bench, "off", args.min_time, args.repeats)
    full = run_mode(args.bench, "all", args.min_time, args.repeats)
    if set(off) != set(full):
        raise SystemExit("bench case sets differ between GC_VERIFY modes: "
                         f"{sorted(set(off) ^ set(full))}")

    report = []
    failures = []
    for name in sorted(off):
        base = off[name]["us_per_iter"]
        checked = full[name]["us_per_iter"]
        ratio = checked / base if base > 0 else 1.0
        entry = {"bench": name, "us_off": base, "us_all": checked,
                 "ratio_all": round(ratio, 4)}
        print(f"{name:40s} off={base:10.2f}us all={checked:10.2f}us "
              f"ratio={ratio:.3f}")
        if (ratio > 1.0 + args.max_regression
                and checked - base > args.abs_slack_us):
            failures.append(f"{name}: GC_VERIFY=all executes at "
                            f"{ratio:.3f}x (allowed "
                            f"{1.0 + args.max_regression:.3f}x)")

        # Compile-time gate: full verification vs none.
        coff = off[name].get("compile_us")
        call = full[name].get("compile_us")
        if coff is not None and call is not None:
            cratio = call / coff if coff > 0 else 1.0
            entry["compile_us_off"] = coff
            entry["compile_us_all"] = call
            entry["compile_ratio"] = round(cratio, 4)
            print(f"{'':40s} compile off={coff:10.2f}us "
                  f"all={call:10.2f}us ratio={cratio:.3f}")
            if (cratio > args.max_compile_ratio
                    and call - coff > args.compile_slack_us):
                failures.append(f"{name}: GC_VERIFY=all compiles at "
                                f"{cratio:.3f}x GC_VERIFY=off (allowed "
                                f"{args.max_compile_ratio:.2f}x)")
        report.append(entry)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.out}")

    if failures:
        print("\nverification overhead out of budget:")
        for f in failures:
            print("  " + f)
        return 1
    print("\nGC_VERIFY=all execution within noise of GC_VERIFY=off; "
          f"compile overhead within {args.max_compile_ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
