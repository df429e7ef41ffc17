#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --workloads cached-hot --runs 5

For each workload it makes --runs untraced runs, with seeds 1 to --runs,
and reports per end-to-end metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. It does the same for the per-kind latencies of the summary
line (reported, not gated), for the failure share of the timed phase
(failed / attempted) and for the end check's share of failed checks
(final_check.failed / final_check.checked).
With --out, the raw results and the summary are written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med) if med else 0.0


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for w in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, check=True).stdout.decode()
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["summary"] = json.loads(lines[-2])
            results.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr)
        summary = {}
        for name in bounds:
            med, s = spread([r["metrics"][name]["value"] for r in results])
            summary[name] = {"median": med, "spread": s, "bound": bounds[name]}
        for name in sorted(results[0]["summary"]["latency"]):
            if name not in bounds:
                med, s = spread([r["summary"]["latency"][name]["value"] for r in results])
                summary[name] = {"median": med, "spread": s, "gated": False}
        med, s = spread([r["failed"] / r["attempted"] for r in results])
        summary["failure_share"] = {"median": med, "spread": s, "gated": False}
        fin = [r["summary"]["final_check"] for r in results]
        med, s = spread([c["failed"] / c["checked"] for c in fin])
        summary["final_lost_share"] = {"median": med, "spread": s, "gated": False}
        record["workloads"][w] = {"summary": summary, "runs": results}
        print(f"\n{w}")
        for name, v in summary.items():
            flag = "  (reported, not gated)" if "bound" not in v else ""
            if "bound" in v and name != "setup_s" and v["spread"] > v["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:16s} median {v['median']:12.4f}  spread {v['spread']:.3f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
