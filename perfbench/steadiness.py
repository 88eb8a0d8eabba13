#!/usr/bin/env python3
"""Steadiness report for the skyline benchmark.

Runs each workload repeatedly, each time with another seed, and prints for
every metric its median, quartiles and spread (interquartile distance as a
share of the median), next to the bound BENCHMARK.json gives it:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads nulls-6d --sets 2
    python3 perfbench/steadiness.py --runs 3 --trace 1

With --sets 2 it repeats the whole series with the same seeds and also
reports how far the second median moved from the first, in the metric's
worse direction. A spread is marked "ok" when it is below a third of the
bound; setup_s is held only to the median-shift check. Run it from the
root of a checkout; the raw results go to perfbench/target/steadiness/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000  # run i of a series uses seed SEED_BASE + i


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    return res, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    report = {}
    for w in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(a.runs):
                res, wall = run_once(w, SEED_BASE + i, spec["run_seconds"], a.trace)
                print(f"{w} set {s + 1} seed {SEED_BASE + i}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} wall={wall:.1f} s",
                      flush=True)
                for name in values:
                    values[name].append(res["metrics"][name]["value"])
            sets.append(values)
        report[w] = sets
        print(f"\n{w}: {a.runs} runs per set, {a.sets} set(s)")
        print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  check")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            for s, values in enumerate(sets):
                v = values[name]
                q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
                spread = (q3 - q1) / med if med else float("nan")
                check = ""
                if bound is not None and name != "setup_s":
                    check = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                if s > 0 and bound is not None:
                    m0 = statistics.median(sets[0][name])
                    m1 = statistics.median(v)
                    worse = (m1 - m0) / m0 if m["better"] == "lower" else (m0 - m1) / m0
                    check += f" shift {worse:+.3f}" + ("" if worse <= bound else " TOO FAR")
                label = name if s == 0 else f"  set {s + 1}"
                print(f"  {label:<24} {statistics.median(v):>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.3f} {bound if bound is not None else '':>6}  {check}")
    out = os.path.join(HERE, "target", "steadiness")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace{a.trace}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nraw values: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
