#!/usr/bin/env python3
"""Runs one perfbench workload end to end and prints its metrics.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

Run from the repository root. Steps:
  1. build perfbench/ (engine sources compiled in Release into the build
     directory, $CARGO_TARGET_DIR or .bench_build/);
  2. generate the workload's inputs and reference answers from the seed
     (pbgen, its own process) into .bench_data/;
  3. run the measured process (pbrun): sixteen processes of --seconds / 16
     seconds of whole rounds each, pooled (one process when traced);
  4. print the result as the last stdout line: one JSON object with
     correct, attempted, failed and metrics (end-to-end metrics with
     --trace 0, per-layer metrics with --trace 1).

Each process leaves samples.json under .bench_out/<workload>-<seed>-<plain|
trace>/proc<i>/; traced runs add trace.json (Chrome trace events) and
layers.json there.
--corrupt-expected alters one reference answer before the run, to show that
a wrong answer makes the run report "correct": false.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("adhoc", "dashboard", "ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
# Everything after the build must end within this many seconds.
RUN_TIMEOUT_S = 170
PROCESSES = 16
# machine.calib_ms at the reference machine speed of the probe-relative metrics.
CALIB_REF_MS = 10.0
# How strongly the engine's times follow the probe's: a process whose probe
# is 10% slower runs its queries about 15% slower. Fitted over 1,760
# processes of four workloads (log throughput against log probe time,
# slopes 1.2 to 1.8 per workload and set); with 1.0 the rescaling removed
# only part of the drift, and ingest's spread stayed at 0.17.
CALIB_EXPONENT = 1.5
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed, see " + log_path)
    return build_dir


def corrupt_first_answer(script_path):
    with open(script_path) as f:
        lines = f.read().split("\n")
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == "q":
            cell = fields[2].split(";")[0].split(",")[0]
            if cell.startswith("i"):
                bad = "i%d" % (int(cell[1:]) + 1)
            else:
                bad = "f%r" % (float(cell[1:]) * 1.01 + 1)
            fields[2] = bad + fields[2][len(cell):]
            lines[i] = "\t".join(fields)
            break
    with open(script_path, "w") as f:
        f.write("\n".join(lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "core", "query_engine.h")):
        fail("run from the repository root: engine sources not found under ./src")
    build_dir = build(root)

    tag = "%s-%d-%s" % (args.workload, args.seed, "trace" if args.trace else "plain")
    out_dir = os.path.join(root, ".bench_out", tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    # Untraced runs split the time over PROCESSES measured processes: on a
    # shared host the speed a process gets differs from one process to the
    # next, and averaging over many processes evens that out within a run.
    nproc = 1 if args.trace else PROCESSES
    data_dir = os.path.join(root, ".bench_data", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    samples = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        gen = subprocess.run([os.path.join(build_dir, "pbgen"), args.workload,
                              str(args.seed), data_dir], timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            fail("input generation failed")
        if args.corrupt_expected:
            corrupt_first_answer(os.path.join(data_dir, "script.txt"))
        for i in range(nproc):
            proc_out = os.path.join(out_dir, "proc%d" % i)
            os.makedirs(proc_out)
            run_process(build_dir, data_dir, args.seconds / nproc, args.trace, proc_out,
                        checks=(i == 0), timeout=deadline - time.monotonic())
            with open(os.path.join(proc_out, "samples.json")) as f:
                samples.append(json.load(f))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    result = {
        "correct": all(s["correct"] for s in samples),
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
    }
    if args.trace:
        result["metrics"] = samples[0]["layers"]
    else:
        result["metrics"] = end_to_end(samples, probe_relative=True)
        with open(os.path.join(out_dir, "result.json"), "w") as f:
            json.dump(dict(result, raw=end_to_end(samples, probe_relative=False)), f, indent=1)
    print(json.dumps(result))


def run_process(build_dir, data_dir, seconds, trace, out_dir, checks, timeout):
    """Runs one measured process; it restores the inputs it changes."""
    env = dict(os.environ, PERFBENCH_T0_NS=str(time.monotonic_ns()))
    try:
        res = subprocess.run([os.path.join(build_dir, "pbrun"), data_dir, repr(seconds),
                              str(trace), out_dir, "1" if checks else "0"],
                             timeout=max(1.0, timeout), env=env)
    except subprocess.TimeoutExpired:
        fail("measured process timed out")
    if res.returncode != 0:
        fail("measured process failed (exit %d)" % res.returncode)


def quantile(values, q):
    """Linear interpolation between closest ranks (as the measured process)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(samples, probe_relative):
    """Pools the processes' samples into the six end-to-end metrics.

    A process runs all of its queries on the same share of the machine: on a
    shared host that share differs by up to ~40% from one process to the
    next and drifts over minutes. So latencies are summarised per process
    and the run reports the mean over its processes. probe_relative also
    rescales each process's times to the reference machine speed: the probe
    that runs inside the process after every round tracks its share (its
    time correlates with the process's throughput at -0.7 to -0.9), and
    each time is divided by (calib_ms / CALIB_REF_MS) ** CALIB_EXPONENT of
    that process, set-up time included: every process is a cold start, so
    setup_s is the mean of the sixteen cold set-ups. Memory stays raw.
    """
    def slow(s):
        if not probe_relative:
            return 1.0
        return (statistics.median(s["calib_ms"]) / CALIB_REF_MS) ** CALIB_EXPONENT

    setup, cold, p50, p90, timed_s, count = [], [], [], [], 0.0, 0
    for s in samples:
        if not s["latency_ms"] or not s["cold_ms"] or s["timed_ms"] <= 0:
            fail("a measured process completed no timed or cold query")
        setup.append(s["setup_s"] / slow(s))
        cold.append(quantile(s["cold_ms"], 0.5) / slow(s))
        p50.append(quantile(s["latency_ms"], 0.5) / slow(s))
        p90.append(quantile(s["latency_ms"], 0.9) / slow(s))
        timed_s += s["timed_ms"] / slow(s) / 1000.0
        count += len(s["latency_ms"])

    def metric(value, unit):
        return {"value": value, "unit": unit}
    return {
        "setup_s": metric(statistics.mean(setup), "s"),
        "first_query_ms": metric(statistics.mean(cold), "ms"),
        "query_p50_ms": metric(statistics.mean(p50), "ms"),
        "query_p90_ms": metric(statistics.mean(p90), "ms"),
        "queries_per_s": metric(count / timed_s, "1/s"),
        "peak_rss_mb": metric(max(s["peak_rss_mb"] for s in samples), "MB"),
    }


if __name__ == "__main__":
    main()
