#!/usr/bin/env python3
"""Builds and runs the dut performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library subsystems it
measures plus the dut_perfbench binary) into .bench_build/perfbench; later
calls only rebuild what changed. dut_perfbench then runs with DUT_TRACE,
DUT_OBS_LEVEL and DUT_THREADS unset, so end-to-end figures come from the
library's default, untraced configuration. Its last output line is the
result JSON.

--selftest runs every workload at a tiny size under two seeds, untraced and
traced, and checks that each run passes its checks, emits every metric of
BENCHMARK.json with its unit, and closes its trace.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dut_perfbench")
WORKLOADS = ("zero_round", "congest_grid", "congest_shm", "serve_zipf")
SCRUBBED_ENV = ("DUT_TRACE", "DUT_OBS_LEVEL", "DUT_THREADS", "DUT_TRIAL_SCALE")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "stats", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def bench_env():
    env = dict(os.environ)
    for name in list(env):
        if name in SCRUBBED_ENV or name.startswith("DUT_TRACE_"):
            del env[name]
    return env


def trace_path(workload, seed, size):
    directory = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "%s-%s-seed%d.jsonl" % (workload, size, seed))


def bench_args(workload, seed, seconds, trace, size):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    if trace:
        args += ["--trace-out", trace_path(workload, seed, size)]
    return args


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    return bench, layers


def selftest():
    bench, layers = load_contract()
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != %s" % (names, WORKLOADS))
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if sorted(layers["per_layer"]) != sorted(per_layer):
        problems.append("layers.json does not cover the per-layer metrics")
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                expected = bench["per_layer"] if trace else bench["end_to_end"]
                done = subprocess.run(
                    bench_args(workload, seed, 1, trace, "tiny"),
                    env=bench_env(), stdout=subprocess.PIPE, text=True,
                    timeout=180)
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                known = len(problems)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    problems.append("%s: exit %d" % (label, done.returncode))
                    continue
                record = json.loads(lines[-2])["record"]
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("%s: result keys %s" % (label, sorted(result)))
                if not result["correct"] or result["failed"] != 0 \
                        or result["attempted"] < 1:
                    problems.append("%s: correct=%s failed=%s checks=%s" % (
                        label, result["correct"], result["failed"],
                        record["ledger"]))
                metrics = result["metrics"]
                if sorted(metrics) != sorted(m["name"] for m in expected):
                    problems.append("%s: metric names differ from BENCHMARK.json"
                                    % label)
                for m in expected:
                    got = metrics.get(m["name"])
                    if got is None:
                        continue
                    value = got["value"]
                    if got["unit"] != m["unit"] or not isinstance(
                            value, (int, float)) or not math.isfinite(value):
                        problems.append("%s: bad metric %s=%s" % (
                            label, m["name"], got))
                    elif not trace and value <= 0:
                        problems.append("%s: %s is not positive" % (
                            label, m["name"]))
                if trace:
                    gap = metrics["obs.closure_gap"]["value"]
                    if gap > record["closure_tolerance"]:
                        problems.append("%s: trace does not close (gap %g)"
                                        % (label, gap))
                    for name in layers["per_layer"]:
                        if not name.startswith("obs.") and workload in \
                                layers["per_layer"][name]["workloads"] \
                                and metrics[name]["value"] == 0:
                            problems.append("%s: %s reads 0" % (label, name))
                print("selftest %s: %s" % (
                    "ok" if len(problems) == known else "FAILED", label),
                    file=sys.stderr)
    for problem in problems:
        print("selftest FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.selftest:
        sys.exit(selftest())
    sys.stdout.flush()
    os.execve(BINARY, bench_args(args.workload, args.seed, args.seconds,
                                 args.trace, "full"), bench_env())


if __name__ == "__main__":
    main()
