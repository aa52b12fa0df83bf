#!/usr/bin/env python3
"""Steadiness report of the pipeline benchmark.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--seconds S] [--out FILE] [--against FILE]

Runs the benchmark --runs times on each workload, one seed after another,
and prints for every end-to-end metric the median and the spread, the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, for the host-normalized value the
benchmark reports beside the raw one it prints on its "raw" line. A
spread is marked when it reaches a third of the metric's bound in
BENCHMARK.json. --out saves the values; --against compares the medians
with a saved set, as a share of the saved median, worse-direction
positive. Exits non-zero when a run fails or reports "correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    for line in lines:
        if (line.strip().startswith("FAILED:")
                and "known defect" not in line):
            print(f"  {workload} seed {seed}: {line.strip()}", flush=True)
    result = json.loads(lines[-1])
    raw = next(json.loads(l[4:]) for l in lines if l.startswith("raw {"))
    return result, {k: v["value"] for k, v in raw.items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    values = {}
    ok = True
    for w in workloads:
        norm = {m["name"]: [] for m in metrics}
        raw = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, raw_values = run_once(w, seed, args.seconds)
            ok = ok and result["correct"]
            print(f"{w} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
            for m in metrics:
                norm[m["name"]].append(result["metrics"][m["name"]]["value"])
                raw[m["name"]].append(raw_values[m["name"]])
        values[w] = {"normalized": norm, "raw": raw}

    print()
    print(f"{'workload':16} {'metric':20} {'median':>12} {'spread':>8} "
          f"{'raw spread':>10} {'bound':>6}" +
          (f" {'vs saved':>9}" if saved else ""))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            norm = values[w]["normalized"][name]
            s_norm, s_raw = spread(norm), spread(values[w]["raw"][name])
            flag = "" if s_norm < bound / 3 else "  <-- spread >= bound/3"
            line = (f"{w:16} {name:20} {statistics.median(norm):12.6g} "
                    f"{s_norm:8.3f} {s_raw:10.3f} {bound:6.2f}")
            if saved:
                old = statistics.median(saved[w]["normalized"][name])
                new = statistics.median(norm)
                worse = (new - old) / old
                if m["better"] == "higher":
                    worse = -worse
                line += f" {worse:+9.3f}"
                if worse > bound:
                    flag += "  <-- median worse than saved by more than bound"
            print(line + flag)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
