#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root.  Runs every workload at tiny size, untraced
and traced, and checks that each result line has exactly the metric names
and units BENCHMARK.json declares.  Then runs evaluate against a golden
table with one perturbed entry and checks that the run fails, and checks
that bad usage exits 2 without a result.  Exits non-zero on any failure.
Takes about two minutes, most of it model training.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]
OUT = os.path.join(".bench_out", "smoke")


def run(args):
    p = subprocess.run(RUN + args, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (lines[-1] if lines else ""), p.stdout + p.stderr


def declared(bench, key):
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []

    def fail(msg, output=""):
        failures.append(msg)
        print("FAIL:", msg)
        if output:
            print(output[-3000:])

    for w in bench["workloads"]:
        for trace in ("0", "1"):
            name = f"{w['name']} --trace {trace}"
            rc, last, out = run(["--workload", w["name"], "--seed", "1", "--seconds", "2",
                                 "--trace", trace, "--tiny", "--out-dir", OUT])
            if rc != 0:
                fail(f"{name}: exit code {rc}", out)
                continue
            try:
                result = json.loads(last)
            except ValueError:
                fail(f"{name}: last line is not JSON: {last!r}", out)
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                fail(f"{name}: correct={result.get('correct')} "
                     f"attempted={result.get('attempted')}", out)
            want = declared(bench, "per_layer" if trace == "1" else "end_to_end")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != want:
                fail(f"{name}: metrics {got} differ from BENCHMARK.json {want}")
            else:
                print(f"ok: {name}: {len(got)} metrics match BENCHMARK.json")

    # a perturbed golden entry must fail the run
    golden = os.path.join(OUT, "golden")
    shutil.rmtree(golden, ignore_errors=True)
    shutil.copytree(os.path.join("perfbench", "golden"), golden)
    path = os.path.join(golden, "evaluate.tsv")
    with open(path) as f:
        rows = f.read().splitlines()
    i = next(i for i, r in enumerate(rows) if not r.startswith("#"))
    cols = rows[i].split("\t")
    cols[1] = str(int(cols[1]) + 1)
    rows[i] = "\t".join(cols)
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")
    rc, last, out = run(["--workload", "evaluate", "--seed", "1", "--seconds", "2",
                         "--trace", "0", "--tiny", "--golden-dir", golden, "--out-dir", OUT])
    if rc == 0 or '"correct": false' not in last:
        fail(f"perturbed golden entry for {cols[0]} did not fail the run (exit {rc})", out)
    else:
        print(f"ok: perturbed golden entry for {cols[0]} fails the run (exit {rc})")

    rc, last, out = run(["--workload", "nosuch", "--seed", "1", "--seconds", "2",
                         "--trace", "0"])
    if rc != 2 or last.startswith("{"):
        fail(f"bad usage: exit {rc}, last line {last!r}", out)
    else:
        print("ok: bad usage exits 2 without a result")

    print("smoke:", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
