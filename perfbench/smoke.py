#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at tiny scale (--smoke: short
segments, one set-up, a small input pool, two replay repetitions), once
untraced and once traced, and checks that each run exits 0, reports
correct=true, and emits exactly the metrics BENCHMARK.json names for that
mode, each with its unit and a finite value. From the repository root:

    python3 perfbench/smoke.py

Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        sys.exit(f"FAIL {where}: correct is {result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit(f"FAIL {where}: attempted {result['attempted']}")
    got = result["metrics"]
    if set(got) != set(expected):
        sys.exit(f"FAIL {where}: missing {sorted(set(expected) - set(got))}, "
                 f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            sys.exit(f"FAIL {where}: {name} unit {got[name]['unit']} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"FAIL {where}: {name} value {value!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace, expected in modes.items():
            check(w["name"], trace, run(w["name"], trace), expected)
            print(f"ok {w['name']} trace={trace}: {len(expected)} metrics")
    print("smoke: all workloads emit every named metric")


if __name__ == "__main__":
    main()
