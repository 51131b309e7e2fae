#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 kspbench/selftest.py

For every workload in BENCHMARK.json, runs the benchmark untraced and
traced on a 2,000-vertex KB for one second and checks that the result
object carries exactly the metrics BENCHMARK.json names, each with its
unit, that the printed table names every metric with its unit, and that
the run is correct. Then checks that a deliberately corrupted reference
answer (--corrupt-reference) makes every workload fail. Exits 1 on the
first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05", "--seconds", "1"]
# Printed in the table of an untraced run but not in the result object.
TABLE_ONLY = {"qps": "1/s", "p50_ms": "ms", "p99_ms": "ms",
              "open_p50_ms": "ms", "open_p99_ms": "ms"}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd + TINY + list(extra), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, lines, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0,
                  f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            check(result is not None and result["correct"] is True,
                  f"{where} is not correct")
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{where} result keys {sorted(result)}")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{where} attempted/failed {result['attempted']}/"
                  f"{result['failed']}")
            check(any(line.startswith("fingerprint {") for line in lines),
                  f"{where} printed no fingerprint")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            check(set(got) == set(wanted),
                  f"{where} metrics differ from BENCHMARK.json: "
                  f"{sorted(set(got) ^ set(wanted))}")
            table = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3:
                    table[parts[0]] = (parts[1], parts[2])
            if trace == 0:
                wanted = dict(wanted, **TABLE_ONLY)
            for name, unit in wanted.items():
                check(name in table and table[name][1] == unit,
                      f"{where} table lacks '{name} <value> {unit}'")
                if name in got:
                    check(got[name]["unit"] == unit,
                          f"{where} {name} has unit {got[name]['unit']}")
                    value = got[name]["value"]
                    check(isinstance(value, (int, float)),
                          f"{where} {name} is not a number")
                    check(trace == 1 or value > 0,
                          f"{where} end-to-end {name} is {value}")
            check(any(line.startswith("failed_frac") for line in lines),
                  f"{where} printed no failed_frac")
            if trace == 0:
                for name in TABLE_ONLY:
                    if name.startswith("open_") and workload != "serve_zipf":
                        continue
                    check(table[name][0] != "n/a",
                          f"{where} printed no value for {name}")
            print(f"ok: {where}")
        proc, _, result = run(workload, 0, "--corrupt-reference")
        check(proc.returncode != 0 and result is not None and
              result["correct"] is False and result["failed"] >= 1,
              f"{workload} with a corrupted reference did not fail")
        print(f"ok: {workload} --corrupt-reference fails")
    print("selftest passed")


if __name__ == "__main__":
    main()
