#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for each
end-to-end metric, the median and the spread (interquartile distance as a
share of the median), the figure the benchmark's bounds are judged against.

Run from the repository root:

    python3 perfbench/spread.py --workloads table4,serve --seeds 5
    python3 perfbench/spread.py --seeds 10 --traced --baseline perfbench/BASELINE.json

--traced adds one traced run per workload (seed 0) for the per-layer
figures; --baseline writes every figure, with the host fingerprint each
run printed, to the named JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    doc = {"command": BENCH["command"], "run_seconds": BENCH["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        runs = [run(w, s, 0) for s in seeds]
        entry = {"hosts": sorted({json.dumps(r[0]["host"], sort_keys=True) for r in runs}),
                 "seeds": seeds,
                 "correct": all(r[1]["correct"] for r in runs),
                 "end_to_end": {}}
        ok &= entry["correct"]
        for name in bounds:
            s = summarize([r[1]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
            print(f"{w:10s} {name:15s} median {s['median']:.6g}  spread {s['spread']:.3f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
            print("    " + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        if args.traced:
            rep, res = run(w, 0, 1)
            ok &= res["correct"]
            entry["traced_seed0"] = {"report": rep, "per_layer": {k: v["value"] for k, v in res["metrics"].items()}}
        doc["workloads"][w] = entry
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
