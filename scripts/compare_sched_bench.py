#!/usr/bin/env python3
"""Serial-vs-async scheduler bench comparison for the CI perf gate.

Runs bench_smoke under GC_SCHED=serial and GC_SCHED=async (same build,
same graphs: GC_SCHED only changes how Stream::execute walks the
partition DAG), merges the JSON lines into one report (written to --out,
e.g. BENCH_4.json for PR 4) and fails when

  * an async_* multi-partition branch case is below the required speedup
    (--min-speedup; these are the cases the scheduler exists for), or
  * any other case regresses by more than --max-regression (single
    partition graphs bypass the scheduler entirely, so anything beyond
    noise there is a bug).

Usage:
  python3 scripts/compare_sched_bench.py --bench build/bench/bench_smoke \
      --out BENCH_4.json [--threads 4] [--min-time 0.2] \
      [--min-speedup 1.1] [--max-regression 0.05]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_modes(bench, modes, min_time, repeats, threads):
    """Runs the bench `repeats` times per mode, INTERLEAVED round-robin,
    and keeps the per-case MEDIAN of each mode.

    Interleaving matters because the gate scores a serial/async *ratio*:
    running all of one mode's repeats back-to-back would let sustained
    host drift (noisy neighbor, thermal) land entirely on one side. The
    median (not the sibling scripts' minimum) keeps one lucky run on
    either side from swinging the ratio."""
    samples = {mode: {} for mode in modes}
    cases = {mode: {} for mode in modes}
    for _ in range(repeats):
        for mode in modes:
            env = dict(os.environ)
            env["GC_SCHED"] = mode
            if threads > 0:
                env["GC_THREADS"] = str(threads)
            env.setdefault("GC_BENCH_MIN_TIME", str(min_time))
            out = subprocess.run([bench], env=env, check=True,
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if "error" in rec:
                    raise SystemExit(f"bench case {rec.get('bench')} "
                                     f"failed under {mode}: {rec['error']}")
                if "us_per_iter" not in rec:
                    continue  # coldstart cases report cold/warm times
                samples[mode].setdefault(rec["bench"],
                                         []).append(rec["us_per_iter"])
                cases[mode][rec["bench"]] = rec
    for mode in modes:
        for name, vals in samples[mode].items():
            cases[mode][name]["us_per_iter"] = statistics.median(vals)
    return [cases[mode] for mode in modes]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="path to bench_smoke")
    ap.add_argument("--out", required=True, help="output JSON path")
    ap.add_argument("--threads", type=int, default=4,
                    help="GC_THREADS for both modes (0 = inherit)")
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="GC_BENCH_MIN_TIME per case (seconds)")
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    help="fail if an async_* case's async speedup is "
                         "below this factor")
    ap.add_argument("--max-regression", type=float, default=0.10,
                    help="fail if a non-async case is slower under "
                         "GC_SCHED=async by more than this fraction "
                         "(single-partition cases run identical code in "
                         "both modes, so this only catches accidental "
                         "scheduler coupling; the default leaves room "
                         "for sub-microsecond timing noise)")
    ap.add_argument("--abs-slack-us", type=float, default=1.0,
                    help="ignore parity regressions smaller than this "
                         "many microseconds (sub-2us cases swing by "
                         "whole scheduler quanta on busy hosts)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="bench runs per mode (per-case median is kept)")
    args = ap.parse_args()

    serial, async_ = run_modes(args.bench, ["serial", "async"],
                               args.min_time, args.repeats, args.threads)
    if set(serial) != set(async_):
        raise SystemExit("serial and async runs produced different case "
                         f"sets: {sorted(serial)} vs {sorted(async_)}")

    report = {
        "bench": "bench_smoke",
        "compare": "GC_SCHED=serial vs GC_SCHED=async",
        "threads": next(iter(serial.values()))["threads"],
        "host_cores": os.cpu_count(),
        "note": "On hosts with fewer cores than threads, both modes "
                "converge toward single-thread time and the async_* "
                "speedup reflects only the avoided per-nest fork/join "
                "signaling; the full partition-overlap win needs one "
                "core per worker.",
        "min_speedup": args.min_speedup,
        "max_regression": args.max_regression,
        "cases": [],
    }
    failures = []
    for name in serial:
        s = serial[name]["us_per_iter"]
        a = async_[name]["us_per_iter"]
        speedup = s / a if a > 0 else float("inf")
        gated = name.startswith("async_")
        report["cases"].append({
            "bench": name,
            "partitions": serial[name].get("partitions", 1),
            "serial_us_per_iter": s,
            "async_us_per_iter": a,
            "async_speedup": round(speedup, 3),
            "gate": "min_speedup" if gated else "max_regression",
        })
        if gated:
            if speedup < args.min_speedup:
                failures.append(
                    f"{name}: async {a:.2f}us vs serial {s:.2f}us "
                    f"({speedup:.2f}x < required {args.min_speedup:.2f}x)")
        elif (a > s * (1.0 + args.max_regression)
              and a - s > args.abs_slack_us):
            failures.append(f"{name}: async {a:.2f}us vs serial {s:.2f}us "
                            f"({a / s - 1.0:+.1%})")
    report["cases"].sort(key=lambda c: c["bench"])

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for case in report["cases"]:
        print(f"  {case['bench']:24s} serial "
              f"{case['serial_us_per_iter']:10.2f}us  async "
              f"{case['async_us_per_iter']:10.2f}us  speedup "
              f"{case['async_speedup']:.2f}x")
    if failures:
        print("FAIL: scheduler gate violations:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
