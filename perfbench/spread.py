#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--seed-base 1]
                                [--trace 0] [--out FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A spread
is steady when it is below a third of the bound; setup_s has no spread
limit. Runs are sequential. --out writes the table as JSON (used for the
trajectory table in README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    sys.stdout.reconfigure(line_buffering=True)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {}
    ok = True
    for w in args.workloads.split(","):
        results = []
        for i in range(args.seeds):
            seed = args.seed_base + i
            r = run_once(w, seed, spec["run_seconds"], args.trace)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}")
            results.append(r)
        report[w] = {}
        print(f"\n{w} ({args.seeds} seeds from {args.seed_base})")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound / 3:
                    flag = " UNSTEADY"
                    ok = False
            report[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "unit": m["unit"]}
            print(f"  {m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
