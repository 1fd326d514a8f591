#!/usr/bin/env python3
"""Self-test of the benchmark, on the small (--smoke) configurations.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that:
  * an untraced run prints every end-to-end metric, and a traced run every
    per-layer metric, each with the unit BENCHMARK.json declares, and no
    other metric;
  * every call succeeds and every byte checks out (correct, failed == 0);
  * modeled metrics are bit-identical across two processes at one seed and
    change when the seed changes.
It also checks that the benchmark exits non-zero, without printing a result,
in a directory holding only BENCHMARK.json and perfbench/. Exit code 0 means
every check passed.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODELED = ["write_mbps", "read_mbps", "baseline_write_mbps",
           "baseline_read_mbps", "mem_per_rank_kib"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL", what)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result(workload, seed, trace):
    out = run(workload, seed, trace)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and lines,
          f"{workload} seed {seed} trace {trace}: exit {out.returncode}")
    return json.loads(lines[-1]) if lines else {}


def check_shape(workload, r, declared, trace):
    tag = f"{workload} trace {trace}"
    check(set(r) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(r)}")
    check(r.get("correct") is True, f"{tag}: correct is not true")
    check(r.get("failed") == 0, f"{tag}: failed_frac is not 0")
    check(isinstance(r.get("attempted"), int) and r["attempted"] >= 1,
          f"{tag}: attempted < 1")
    got = r.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    check(set(got) == set(want),
          f"{tag}: missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if name in got:
            check(got[name].get("unit") == unit,
                  f"{tag}: {name} unit {got[name].get('unit')} != {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        a = result(w, 1, 0)
        check_shape(w, a, spec["end_to_end"], 0)
        b = result(w, 1, 0)
        c = result(w, 2, 0)
        if a and b and c:
            for m in MODELED:
                check(a["metrics"][m]["value"] == b["metrics"][m]["value"],
                      f"{w}: {m} differs between two runs at seed 1")
            check(any(a["metrics"][m]["value"] != c["metrics"][m]["value"]
                      for m in MODELED[:4]),
                  f"{w}: modeled metrics did not change with the seed")
        check_shape(w, result(w, 1, 1), spec["per_layer"], 1)
        print(f"{w}: checked")

    # Without the library sources next to it the benchmark must refuse.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
    check(out.returncode != 0 and not out.stdout.strip(),
          "bare checkout: expected a non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
