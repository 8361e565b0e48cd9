#!/usr/bin/env python3
"""CI bench gates: one table of gates, one runner, one report schema.

A gate runs a bench binary under each of its modes (one environment
setting per mode), interleaving the modes round-robin for `repeats`
rounds so slow host drift lands on every mode alike. Each case's samples
of one field are reduced with the gate's estimator (their minimum or
their median); 0/1 flags must hold on every sample. The gate's check
function then judges the reduced values against the bars in its row.

Every bar, repeat count, min-time and environment setting lives in
GATES: changing one means editing its row.

Usage:
  python3 scripts/bench_gate.py GATE --bench-dir build/bench --out PATH
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

INF = float("inf")


@dataclass(frozen=True)
class Gate:
    binary: str
    # Mode label -> environment overrides (None removes the variable).
    modes: dict
    repeats: int
    estimator: Callable
    # Reduced per case. A record is one of the gate's cases when it
    # carries fields[0]; the others are optional.
    fields: tuple
    bars: dict
    check: Callable
    # Set only where the caller's environment leaves them unset.
    defaults: dict
    # 0/1 record fields that must be 1 on every sample.
    flags: tuple = ()
    # Record field that splits one case into labelled sub-records (the
    # label takes the mode's place in the reduced values).
    split: Optional[str] = None


def check_kernel(values, b):
    for case, m in values.items():
        s, v = m["scalar"]["us_per_iter"], m["simd"]["us_per_iter"]
        yield (case, "scalar/simd", s / v if v > 0 else INF,
               f"simd <= scalar x {b['max_ratio']}", v <= s * b["max_ratio"])


def check_sched(values, b):
    for case, m in values.items():
        s, a = m["serial"]["us_per_iter"], m["async"]["us_per_iter"]
        speedup = s / a if a > 0 else INF
        if case.startswith("async_"):
            yield (case, "serial/async", speedup, f">= {b['min_speedup']}",
                   speedup >= b["min_speedup"])
        else:
            yield (case, "serial/async", speedup,
                   f"async <= serial x {b['max_ratio']} or within "
                   f"{b['slack_us']}us",
                   a <= s * b["max_ratio"] or a - s <= b["slack_us"])


def check_dynbatch(values, b):
    for case, m in values.items():
        r = m["run"]
        warm, cold, exact = r["us_per_iter"], r["cold_us"], r["exact_us"]
        cold_speedup = cold / warm if warm > 0 else INF
        yield (case, "cold/warm", cold_speedup,
               f">= {b['min_cold_speedup']} or warm <= cold/"
               f"{b['min_cold_speedup']} + {b['slack_us']}us",
               cold_speedup >= b["min_cold_speedup"] or
               warm <= cold / b["min_cold_speedup"] + b["slack_us"])
        if exact > 0:
            # Padded rows are real work: the bound scales by bucket/batch.
            batch, bucket = r["batch"], r["bucket"]
            ratio = b["max_padded_ratio"] if bucket != batch else b["max_ratio"]
            bound = exact * (bucket / batch) * ratio + b["slack_us"]
            yield (case, "warm/exact", warm / exact,
                   f"warm <= exact x {bucket}/{batch} x {ratio} + "
                   f"{b['slack_us']}us = {bound:.2f}us", warm <= bound)


def check_cache(values, b):
    if b["showcase"] not in values:
        yield b["showcase"], "cases", 0, "present in the bench output", False
    for case, m in values.items():
        r = m["run"]
        yield (case, "bit_identical", r["bit_identical"], "== 1",
               r["bit_identical"] == 1)
        showcase = case == b["showcase"]
        bar = b["min_showcase_speedup"] if showcase else b["min_speedup"]
        speedup = r["pipeline_us"] / r["load_us"] if r["load_us"] > 0 else 0.0
        yield case, "pipeline/load", speedup, f">= {bar}", speedup >= bar
        if showcase:
            cold, warm = r["cold_start_us"], r["warm_start_us"]
            session = cold / warm if warm > 0 else 0.0
            yield (case, "cold/warm", session, f">= {b['min_session_speedup']}",
                   session >= b["min_session_speedup"])


def parity(case, figure, base, other, max_ratio, slack_us):
    """other/base judged against max_ratio, forgiven within slack_us."""
    ratio = other / base if base > 0 else 1.0
    return (case, figure, ratio, f"<= {max_ratio} or within {slack_us}us",
            ratio <= max_ratio or other - base <= slack_us)


def check_verify(values, b):
    for case, m in values.items():
        off, on = m["off"], m["all"]
        yield parity(case, "all/off us_per_iter", off["us_per_iter"],
                     on["us_per_iter"], b["max_ratio"], b["slack_us"])
        if "compile_us" in off and "compile_us" in on:
            yield parity(case, "all/off compile_us", off["compile_us"],
                         on["compile_us"], b["max_compile_ratio"],
                         b["compile_slack_us"])


def check_fault(values, b):
    for case, m in values.items():
        for mode in ("disarmed", "armed"):
            yield parity(case, f"{mode}/base", m["base"]["us_per_iter"],
                         m[mode]["us_per_iter"], b[f"max_{mode}_ratio"],
                         b["slack_us"])


def check_serve(values, b):
    for case, m in values.items():
        if "seq" not in m or "batch" not in m:
            yield case, "modes", sorted(m), "has seq and batch", False
            continue
        seq = m["seq"]["qps"]
        ratio = m["batch"]["qps"] / seq if seq > 0 else 0.0
        bar = b["min_int8_speedup"] if "int8" in case else b["min_parity"]
        yield case, "batch/seq qps", ratio, f">= {bar}", ratio >= bar
        for mode, rec in m.items():
            yield (case, f"{mode} exact", rec["exact"], "== 1",
                   rec["exact"] == 1)


UNSET_FAULT = {"GC_FAULT": None, "GC_FAULT_SEED": None}

GATES = {
    "kernel": Gate(
        "bench_smoke", {m: {"GC_KERNELS": m} for m in ("scalar", "simd")},
        repeats=3, estimator=min, fields=("us_per_iter",),
        bars={"max_ratio": 1.05}, check=check_kernel,
        defaults={"GC_BENCH_MIN_TIME": "0.3"}),
    "sched": Gate(
        "bench_smoke",
        {m: {"GC_SCHED": m, "GC_THREADS": "4"} for m in ("serial", "async")},
        repeats=6, estimator=statistics.median, fields=("us_per_iter",),
        bars={"min_speedup": 1.1, "max_ratio": 1.10, "slack_us": 1.0},
        check=check_sched, defaults={"GC_BENCH_MIN_TIME": "0.3"}),
    "dynbatch": Gate(
        "bench_smoke", {"run": {}}, repeats=3, estimator=statistics.median,
        fields=("cold_us", "us_per_iter", "exact_us", "batch", "bucket"),
        bars={"min_cold_speedup": 5.0, "max_ratio": 1.05,
              "max_padded_ratio": 1.15, "slack_us": 2.0},
        check=check_dynbatch,
        # The dynbatch sweep has its own budget; the other cases in the
        # binary are measured and discarded, so theirs goes to the floor.
        defaults={"GC_BENCH_DYNBATCH_MIN_TIME": "0.2",
                  "GC_BENCH_MIN_TIME": "0.01"}),
    "cache": Gate(
        "bench_smoke", {"run": {}}, repeats=3, estimator=statistics.median,
        fields=("pipeline_us", "load_us", "cold_start_us", "warm_start_us"),
        flags=("bit_identical",),
        # The showcase's cold fold burns compute (VNNI repacking and
        # compensation) that a warm start skips; the other shapes are
        # compile- or memory-bound on both paths, so they get the lower bar.
        bars={"showcase": "coldstart_mlp_wide_int8", "min_speedup": 1.5,
              "min_showcase_speedup": 5.0, "min_session_speedup": 3.0},
        check=check_cache, defaults={"GC_BENCH_MIN_TIME": "0.01"}),
    "verify": Gate(
        "bench_smoke", {m: {"GC_VERIFY": m} for m in ("off", "all")},
        repeats=3, estimator=min, fields=("us_per_iter", "compile_us"),
        bars={"max_ratio": 1.05, "slack_us": 1.0, "max_compile_ratio": 5.0,
              "compile_slack_us": 500.0},
        check=check_verify, defaults={"GC_BENCH_MIN_TIME": "0.3"}),
    "fault": Gate(
        # disarmed runs the base configuration again: it bounds noise only.
        "bench_smoke",
        {"base": UNSET_FAULT, "disarmed": UNSET_FAULT,
         "armed": {**UNSET_FAULT, "GC_FAULT": "*:p0"}},
        repeats=3, estimator=min, fields=("us_per_iter",),
        bars={"max_disarmed_ratio": 1.05, "max_armed_ratio": 1.5,
              "slack_us": 1.0},
        check=check_fault, defaults={"GC_BENCH_MIN_TIME": "0.3"}),
    "serve": Gate(
        "bench_serve", {"run": {"GC_SERVE_BENCH_CLIENTS": "4"}}, repeats=5,
        estimator=statistics.median, fields=("qps",), flags=("exact",),
        split="mode", bars={"min_int8_speedup": 2.0, "min_parity": 0.9},
        check=check_serve, defaults={"GC_BENCH_MIN_TIME": "0.3"}),
}


def run(gate, bench_dir):
    """Returns {case: {mode or split label: {field: reduced value}}}."""
    binary = os.path.join(bench_dir, gate.binary)
    samples = {}
    cases_by_mode = {mode: set() for mode in gate.modes}
    for _ in range(gate.repeats):
        for mode, overrides in gate.modes.items():
            env = dict(os.environ)
            for var, value in gate.defaults.items():
                env.setdefault(var, value)
            for var, value in overrides.items():
                if value is None:
                    env.pop(var, None)
                else:
                    env[var] = value
            out = subprocess.run([binary], env=env, check=True,
                                 capture_output=True, text=True).stdout
            for line in filter(str.strip, out.splitlines()):
                rec = json.loads(line)
                if "error" in rec:
                    raise SystemExit(f"bench case {rec.get('bench')} failed "
                                     f"in mode {mode}: {rec['error']}")
                if gate.fields[0] not in rec:
                    continue
                cases_by_mode[mode].add(rec["bench"])
                label = rec[gate.split] if gate.split else mode
                sub = samples.setdefault(rec["bench"], {}).setdefault(label, {})
                for f in gate.fields + gate.flags:
                    if f in rec:
                        sub.setdefault(f, []).append(rec[f])
    case_sets = {frozenset(s) for s in cases_by_mode.values()}
    if len(case_sets) != 1:
        raise SystemExit(f"modes produced different case sets: "
                         f"{ {m: sorted(s) for m, s in cases_by_mode.items()} }")
    if not samples:
        raise SystemExit(f"no case in {gate.binary}'s output carries "
                         f"{gate.fields[0]}")
    return {case: {label: {f: (int(all(v == 1 for v in vals))
                               if f in gate.flags else gate.estimator(vals))
                           for f, vals in sub.items()}
                   for label, sub in by_label.items()}
            for case, by_label in sorted(samples.items())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("gate", choices=GATES)
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding bench_smoke and bench_serve")
    ap.add_argument("--out", required=True, help="report JSON path")
    args = ap.parse_args()
    gate = GATES[args.gate]

    values = run(gate, args.bench_dir)
    cases = {case: {"values": v, "checks": []} for case, v in values.items()}
    failures = []
    for case, figure, value, bar, ok in gate.check(values, gate.bars):
        cases.setdefault(case, {"values": {}, "checks": []})["checks"].append(
            {"figure": figure, "value": value, "bar": bar, "ok": ok})
        shown = f"{value:.3f}" if isinstance(value, float) else str(value)
        print(f"{case:32s} {figure:22s} {shown:>10} {'ok  ' if ok else 'FAIL'}"
              f" {bar}")
        if not ok:
            failures.append(f"{case}: {figure} = {shown} fails {bar}")
    report = {"gate": args.gate, "binary": gate.binary, "modes": gate.modes,
              "defaults": gate.defaults, "estimator": gate.estimator.__name__,
              "repeats": gate.repeats, "bars": gate.bars, "cases": cases,
              "failures": failures}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"wrote {args.out}")
    if failures:
        print(f"FAIL: {args.gate} gate:", *failures, sep="\n  ",
              file=sys.stderr)
        return 1
    print(f"{args.gate} gate OK: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
