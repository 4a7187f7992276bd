#!/usr/bin/env python3
"""Steadiness check: run every workload with several seeds and report, per
end-to-end metric, the median, the quartiles and their spread (Q3 - Q1 as a
share of the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--workload NAME]

Every run goes through run.py, like a single benchmark run. The summary is
printed and written to <build>/steady-<first-seed>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    summary = {}
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        records = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d)" % (w, seed,
                                                          proc.returncode))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: %d of %d ops failed"
                         % (w, seed, result["failed"], result["attempted"]))
            records.append(json.loads(lines[-2][len("record "):]))
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        rows = {}
        print("%s  (seeds %d-%d, steal %.1f-%.1f%%, threads <= %d, %s)"
              % (w, seeds[0], seeds[-1],
                 min(r["steal_pct"] for r in records),
                 max(r["steal_pct"] for r in records),
                 max(r["threads"] for r in records), records[0]["cpu_model"]))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / m["bound"])
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"],
                               "values": v}
            print("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%"
                  "  (bound %g%%)" % (m["name"], med, q1, q3, 100 * spread,
                                      100 * m["bound"]))
        summary[w] = {"metrics": rows, "records": records}
    print("worst spread / bound over every metric and workload: %.2f" % worst)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    with open(os.path.join(build_dir, "steady-%d.json" % args.first_seed),
              "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
