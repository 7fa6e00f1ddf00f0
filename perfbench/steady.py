#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints the spread.

    python3 perfbench/steady.py --workloads adhoc,dashboard --seeds 1-10 --seconds 10

Run from the repository root. For every workload it runs perfbench/run.py
once per seed and prints each run's metrics with the median machine probe
of that run (calib_ms, the fixed probe each measured process runs after
every round). Then, for every metric, it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median of the
reported values and of the raw values before the probe-relative rescaling.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
    result = json.loads(out.strip().split("\n")[-1])
    run_dir = os.path.join(".bench_out", "%s-%d-plain" % (workload, seed))
    with open(os.path.join(run_dir, "result.json")) as f:
        result["raw"] = {k: v["value"] for k, v in json.load(f)["raw"].items()}
    calib = []
    for proc in os.listdir(run_dir):
        if proc.startswith("proc"):
            with open(os.path.join(run_dir, proc, "samples.json")) as f:
                calib += json.load(f)["calib_ms"]
    result["calib_ms"] = statistics.median(calib)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="adhoc,dashboard,ingest")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            r = one_run(workload, seed, args.seconds)
            runs.append(r)
            vals = " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())
            print("%-9s seed=%-3d correct=%s attempted=%d failed=%d calib_ms=%.3f %s" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"],
                   r["calib_ms"], vals), flush=True)
        print("%-9s %-36s %12s %12s %12s %8s %10s" % (workload, "metric", "median", "q1", "q3",
                                                      "spread", "raw_spread"))
        for name in runs[0]["metrics"]:
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
            raw = spread([r["raw"][name] for r in runs])[3]
            print("%-9s %-36s %12.5g %12.5g %12.5g %8.3f %10.3f" % (workload, name, med, q1, q3,
                                                                   sp, raw), flush=True)


if __name__ == "__main__":
    main()
