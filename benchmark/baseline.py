#!/usr/bin/env python3
"""Measure the benchmark's baseline: medians, spreads and drift of every metric.

Runs the command in BENCHMARK.json end to end `--runs` times per workload
(seeds 1..runs), as `--sets` sets one after another, and `--trace-runs`
times per layer. For every end-to-end metric it writes each set's median,
quartiles and spread (the distance between the first and third quartile as
a share of the median, as `statistics.quantiles(values, n=4)` gives them),
and how far each later set's median moved from the first set's in the
metric's worse direction, as a share of the first median. Per-layer
metrics get the same summary over the trace runs. The regression bounds in
BENCHMARK.json are chosen from these numbers. Output goes to
benchmark/results/baseline.json.

Run it from the repository root:

    python3 benchmark/baseline.py --runs 10 --sets 2 --trace-runs 1
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    out = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({out.returncode}):\n"
                 f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, attempted "
          f"{result['attempted']}, failed {result['failed']}", flush=True)
    result["wall_s"] = wall
    return result


def summarize(results):
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for m in metrics.values():
        v = m["values"]
        m["median"] = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            m["q1"], m["q3"] = q1, q3
            m["spread"] = (q3 - q1) / m["median"] if m["median"] else None
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--out", default=os.path.join("benchmark", "results", "baseline.json"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command, seconds = spec["command"], spec["run_seconds"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    baseline = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "command": command,
        "run_seconds": seconds,
        "seeds": seeds,
        "sets": args.sets,
        "trace_seeds": list(range(1, args.trace_runs + 1)),
        "workloads": {name: {"sets": []} for name in names},
    }
    # Sets run one after another, every workload in each, as a later
    # comparison of two sets of runs would.
    for _ in range(args.sets):
        for name in names:
            e2e = [run(command, name, s, seconds, 0) for s in seeds]
            baseline["workloads"][name]["sets"].append({
                "attempted": [r["attempted"] for r in e2e],
                "failed": [r["failed"] for r in e2e],
                "wall_s": [round(r["wall_s"], 1) for r in e2e],
                "end_to_end": summarize(e2e),
            })
    for name in names:
        w = baseline["workloads"][name]
        first = w["sets"][0]["end_to_end"]
        w["worse_shift"] = {}
        for metric, m in first.items():
            shifts = []
            for later in w["sets"][1:]:
                moved = (later["end_to_end"][metric]["median"] - m["median"]) / m["median"]
                shifts.append(moved if lower_is_better[metric] else -moved)
            w["worse_shift"][metric] = shifts
            spreads = [s["end_to_end"][metric].get("spread") or 0.0 for s in w["sets"]]
            print(f"  {name} {metric}: median {m['median']:.6g} {m['unit']}, spreads "
                  + " ".join(f"{x:.3f}" for x in spreads)
                  + ", worse shift " + " ".join(f"{x:+.3f}" for x in shifts), flush=True)
        layers = [run(command, name, s, seconds, 1) for s in baseline["trace_seeds"]]
        w["trace_wall_s"] = [round(r["wall_s"], 1) for r in layers]
        w["per_layer"] = summarize(layers)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
