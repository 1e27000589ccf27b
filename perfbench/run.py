#!/usr/bin/env python3
"""End-to-end benchmark of the JPG tool chain.

Run from the repository root:

    python3 perfbench/run.py --workload module_flow --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and with it the library from src/) into .bench_build/ with
CMake, runs one seeded closed-loop workload, and prints as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line before
it is the host fingerprint of the run (nproc, compiler, build type, telemetry
mode, steal share of the run and process CPU seconds), so a run taken during
a hypervisor steal burst shows as one. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

WORKLOADS = ("module_flow", "swap_closed", "task_graphs")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "jpg_perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "jpg_perfbench")


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(x) for x in fields[1:9]]  # user .. steal (guest is in user)
    return ticks[7], sum(ticks)


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    try:
        binary = build(root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: " + str(e))
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            root, BUILD_DIR, "trace_%s_%d.json" % (args.workload, args.seed))]
    jiffies0, cpu0 = cpu_jiffies(), children_cpu_s()
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    jiffies1, cpu1 = cpu_jiffies(), children_cpu_s()
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(done.stdout[-4000:])
        log("perfbench: jpg_perfbench exited with %d" % done.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unreadable result line: " + lines[-1][:200])
        return 1

    for line in lines[:-1]:
        print(line)
    host = dict(result.pop("info", {}))
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        host["steal_share"] = round(
            (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1]), 6)
    host["process_cpu_s"] = round(cpu1 - cpu0, 6)
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
