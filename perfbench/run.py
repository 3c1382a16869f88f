#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ip_fleet --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench and runs the arithmetic self-tests; later
calls rebuild incrementally. The binary's stdout is passed through: a
`perfbench-report {...}` line with every metric, its sample count and the
run's context, then the one-line result. The result's metric names are
checked against BENCHMARK.json before it is printed. The exit code is
non-zero when the build, a self-test or any output check fails, and 77
when the workload cannot run on this host (loopback_wire without raw
sockets).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ip_fleet", "ip_fleet_merged", "router_survey", "loopback_wire")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def quiet(command):
    """Run a build step with its output on stderr, so stdout stays clean."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet(["cmake", "--build", BUILD, "-j", jobs])
    quiet([os.path.join(BUILD, "perfbench_selftest")])


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace == 1)
    build()
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, args.workload + ".tsv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.splitlines()
    if run.returncode == 77:
        print("\n".join(lines))
        fail("%s skipped on this host (see the report line)" % args.workload,
             77)
    if not lines:
        fail("the benchmark printed nothing (exit %d)" % run.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected))))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
