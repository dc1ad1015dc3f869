#!/usr/bin/env python3
"""Steadiness check: run the workload set k times and report each metric's spread.

    python3 perfbench/steady.py [--runs K] [--seed-base N] [--workloads a,b]
                                [--trace 0|1] [--out FILE]

Round i runs every workload once with seed (seed-base + i), in BENCHMARK.json
order on even rounds and in reverse order on odd rounds, so slow host drift
does not always land on the same workload.  For every (workload, metric) it
prints the median, the first and third quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median, and flags a spread above the
metric's bound from BENCHMARK.json.  --out saves every run's metrics and
context lines (`# ...`) as JSON lines.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    result["context"] = [line[2:] for line in out.splitlines() if line.startswith("# ")]
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default="")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        workloads = [w for w in workloads if w in a.workloads.split(",")]
    metrics = bench["per_layer" if a.trace else "end_to_end"]

    values = {}  # (workload, metric) -> [value per run]
    problems = []
    out = open(a.out, "w") if a.out else None
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = a.seed_base + i
            r = run_once(bench, w, seed, a.trace)
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, **r}) + "\n")
                out.flush()
            print(f"run {i + 1}/{a.runs} {w} seed {seed} done", file=sys.stderr)

    flagged = 0
    print(f"{'workload':<12} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            v = values.get((w, m["name"]), [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                flagged += 1
            elif bound is not None and spread > bound / 3:
                flag = "  over bound/3"
            print(f"{w:<12} {m['name']:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {'' if bound is None else bound:>6}{flag}")
    for line in problems:
        print("INCORRECT RUN:", line)
    return 1 if flagged or problems else 0


if __name__ == "__main__":
    sys.exit(main())
