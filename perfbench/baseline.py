#!/usr/bin/env python3
"""Measures the benchmark's baseline: two interleaved sets of ten runs per workload.

Run from the repository root:

    python3 perfbench/baseline.py

For every workload in `BENCHMARK.json` it runs the benchmark command with
`--trace 0` on seeds 1-10, twice per seed: set A and set B, alternating
which of the two goes first. It then writes `perfbench/baseline.json`:
per set and end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share
of the median, the gap between the two sets' medians as a share of set
A's, and the metric's bound. A traced run (`--trace 1`) on seed 1 records
the per-layer figures.

The script exits non-zero if a run fails its output check, if a spread
exceeds its bound, or if the two sets' medians differ by more than the
bound. As in the benchmark's acceptance rule, the spread of `setup_s` is
reported but not held to the bound; its gap between sets is.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "baseline.json")
SEEDS = list(range(1, 11))
SETS = ("A", "B")


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{proc.stderr[-4000:]}")
    digest = next((l.split()[1] for l in lines if l.startswith("report_fnv1a64")), None)
    return result, digest, wall


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "host": f"{platform.machine()}, {os.cpu_count()} logical CPUs, {platform.system()}",
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "sets": "A and B interleaved per seed, alternating which runs first",
        "workloads": {},
    }
    over = []
    for workload in (w["name"] for w in bench["workloads"]):
        values = {s: {} for s in SETS}
        digests, walls = {}, []
        for i, seed in enumerate(SEEDS):
            for s in (SETS if i % 2 == 0 else SETS[::-1]):
                result, digest, wall = run(bench["command"], workload, seed,
                                           bench["run_seconds"], 0)
                walls.append(wall)
                if digests.setdefault(str(seed), digest) != digest:
                    over.append(f"{workload} seed {seed}: report digest differs between sets")
                for name, m in result["metrics"].items():
                    values[s].setdefault(name, []).append(m["value"])
                print(f"{workload} seed {seed} set {s}: " + ", ".join(
                    f"{n} {m['value']:.6g} {m['unit']}" for n, m in result["metrics"].items()),
                    flush=True)
        summary = {}
        for name, bound in bounds.items():
            a = summarise(values["A"][name], bound)
            b = summarise(values["B"][name], bound)
            gap = abs(b["median"] - a["median"]) / a["median"]
            summary[name] = {"A": a, "B": b, "gap": gap, "bound": bound}
            for s, x in (("A", a), ("B", b)):
                if name != "setup_s" and x["spread"] > bound:
                    over.append(f"{workload} {name} set {s}: spread {x['spread']:.3f} > bound {bound}")
            if gap > bound:
                over.append(f"{workload} {name}: set medians differ by {gap:.3f} > bound {bound}")
            print(f"{workload} {name}: median A {a['median']:.6g} B {b['median']:.6g} "
                  f"spread A {a['spread']:.4f} B {b['spread']:.4f} gap {gap:.4f} "
                  f"(bound {bound})", flush=True)
        traced, _, traced_wall = run(bench["command"], workload, SEEDS[0], bench["run_seconds"], 1)
        report["workloads"][workload] = {
            "end_to_end": summary,
            "report_fnv1a64": digests,
            "wall_s_max": max(walls),
            "traced_wall_s": traced_wall,
            "per_layer_seed": SEEDS[0],
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    with open(OUT, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    if over:
        sys.exit("\n".join(over))


if __name__ == "__main__":
    main()
