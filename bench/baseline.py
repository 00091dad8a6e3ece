#!/usr/bin/env python3
"""Repeat benchmark runs and summarise their spread, one run at a time.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1,2 --out bench/baseline.json

It makes two sets of runs of every workload on the given seeds, the second
set after the first has finished on all workloads.  For every workload and
end-to-end metric it reports, per set, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and how much
worse the second median is than the first: the figures that decide whether
the benchmark is steady against its bounds.  With --trace-seeds it also
makes traced runs and reports the median of each per-layer metric and the
tracing overhead: untraced (first set) over traced ops_per_s on the same
seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["table"] = lines[:-1]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


SETS = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": _seeds(args.seeds),
        "trace_seeds": _seeds(args.trace_seeds),
        "workloads": {w: {"sets": []} for w in workloads},
    }
    runs = {}
    for k in range(SETS):
        for workload in workloads:
            runs[workload, k] = []
            for seed in report["seeds"]:
                res = run_once(workload, seed, seconds, 0)
                runs[workload, k].append(res)
                print(f"set {k + 1}", workload, seed,
                      {m: round(v["value"], 4) for m, v in res["metrics"].items()},
                      f"failed {res['failed']}/{res['attempted']}", f"wall {res['wall_s']:.1f}s", flush=True)
    for workload in workloads:
        entry = report["workloads"][workload]
        for k in range(SETS):
            done = runs[workload, k]
            entry["sets"].append({
                "failed": sum(r["failed"] for r in done),
                "attempted": sum(r["attempted"] for r in done),
                "max_wall_s": max(r["wall_s"] for r in done),
                "end_to_end": {m: spread([r["metrics"][m]["value"] for r in done]) for m in metrics},
            })
        entry["second_worse_by"] = {}
        for m, spec_m in metrics.items():
            first, second = (entry["sets"][k]["end_to_end"][m]["median"] for k in range(SETS))
            worse = (second - first) / first if spec_m["better"] == "lower" else (first - second) / first
            entry["second_worse_by"][m] = worse
            spreads = " ".join(f"{entry['sets'][k]['end_to_end'][m]['spread']:.4f}" for k in range(SETS))
            print(f"  {workload} {m}: medians {first:.6g} {second:.6g} worse by {worse:+.4f}; "
                  f"spreads {spreads}; bound {spec_m['bound']}")
        if report["trace_seeds"]:
            traced = [run_once(workload, seed, seconds, 1) for seed in report["trace_seeds"]]
            layer = {m: statistics.median(r["metrics"][m]["value"] for r in traced) for m in traced[0]["metrics"]}
            untraced = statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r, seed in zip(runs[workload, 0], report["seeds"])
                if seed in report["trace_seeds"]
            )
            entry["per_layer"] = layer
            entry["trace_overhead"] = untraced / layer["trace.ops_per_s"]
            print(f"  {workload} tracing overhead {entry['trace_overhead']:.3f}x", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
