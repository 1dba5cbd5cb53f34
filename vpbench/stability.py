#!/usr/bin/env python3
"""Stability mode: run one workload N times and report each metric's spread.

Run from the root of a checkout:

    python3 vpbench/stability.py --workload serve-bulk --runs 10 --sets 2

Each run uses a different seed. For every metric the report gives the
median, the first and third quartiles (statistics.quantiles, n=4) and the
relative spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. With --sets 2 a second set of runs (fresh seeds) is made
with the same code and each metric's median shift toward "worse" is
compared with the bound as well. A metric fails when its spread exceeds
its bound or its shift exceeds its bound; the exit code is 1 if any
metric fails. Runs last run_seconds from BENCHMARK.json; set k uses
seeds k*runs + 1 to (k+1)*runs. Raw results go to
.bench_build/stability/<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("vpbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit("incorrect result: %s -> %s" % (" ".join(cmd), lines[-1]))
    return res


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = k * args.runs + i + 1
            res = run_once(root, args.workload, seed, seconds, 0)
            runs.append({"seed": seed, "metrics": {n: v["value"] for n, v in res["metrics"].items()}})
            print("set %d seed %d: %s" % (k + 1, seed, " ".join(
                "%s=%.6g" % (m["name"], runs[-1]["metrics"][m["name"]]) for m in metrics)), file=sys.stderr)
        sets.append(runs)

    ok = True
    print("%-16s %-6s %5s %14s %14s %14s %8s %8s %8s  %s" % (
        "metric", "unit", "set", "median", "q1", "q3", "spread", "shift", "bound", "verdict"))
    report = {"workload": args.workload, "seconds": seconds, "sets": sets, "summary": {}}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sums = [summarize([r["metrics"][name] for r in runs]) for runs in sets]
        shift = None
        if len(sums) == 2:
            a, b = sums[0]["median"], sums[1]["median"]
            shift = (b - a) / a if m["better"] == "lower" else (a - b) / a
        for k, s in enumerate(sums):
            bad = s["spread"] > bound or (shift is not None and k == 1 and shift > bound)
            ok = ok and not bad
            print("%-16s %-6s %5d %14.6g %14.6g %14.6g %8.4f %8s %8.3f  %s" % (
                name, m["unit"], k + 1, s["median"], s["q1"], s["q3"], s["spread"],
                "%.4f" % shift if shift is not None and k == 1 else "-", bound,
                "FAIL" if bad else "ok"))
        report["summary"][name] = {"sets": sums, "shift": shift, "bound": bound}
    out_dir = os.path.join(root, ".bench_build", "stability")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, args.workload + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
