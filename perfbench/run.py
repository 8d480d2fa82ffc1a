#!/usr/bin/env python3
"""Runs one workload of the LMKG benchmark and prints its result.

    python3 perfbench/run.py --workload estimate-hot --seed 1 \
        --seconds 10 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn, prints
each one's result line as a "# result" note, and ends with one line that
sums them, its metrics named "<workload>/<metric>".

Run from the root of a checkout. The benchmark binary, lmkg_perfbench, is
built from source into .bench_build/perfbench (CMake, Release) on first
use; later runs rebuild only what changed. The workload's parameters come from
perfbench/workloads.json, the metric names and units from BENCHMARK.json.

Output: the binary's notes ("# " lines), then, as the last line, one JSON
object with exactly the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics; a per-layer metric the workload does not
exercise reads 0 and is named in a "# absent:" note with the reason.
Exits 0 only when every operation succeeded and every metric was measured.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lmkg_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lmkg sources next to perfbench/; run from the root of a "
             "checkout of the repository")
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail("build failed: " + " ".join(step))


def flag_value(value):
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def run_workload(benchmark, spec, name, args):
    """Runs one workload; prints its notes and returns its result."""
    workload = spec["workloads"].get(name)
    if workload is None:
        fail("unknown workload %r" % name)
    params = dict(spec["common_params"])
    params.update(workload["params"])
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload=" + name,
               "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace, "--out_dir=" + out_dir]
    command += ["--%s=%s" % (k, flag_value(v)) for k, v in params.items()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (name, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("lmkg_perfbench printed no result (exit code %d)" %
             done.returncode)

    wanted = benchmark["end_to_end" if args.trace == 0 else "per_layer"]
    absent = workload.get("not_exercised", {})
    metrics = {}
    for metric in wanted:
        metric_name = metric["name"]
        measured = result["metrics"].get(metric_name)
        if measured is None and args.trace == 1 and metric_name in absent:
            print("# absent: %s (%s)" % (metric_name, absent[metric_name]))
            measured = {"value": 0.0, "unit": metric["unit"]}
        if measured is None or measured["value"] is None:
            fail("%s did not measure %s" % (name, metric_name))
        if measured["unit"] != metric["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" %
                 (metric_name, measured["unit"], metric["unit"]))
        metrics[metric_name] = {"value": measured["value"],
                                "unit": metric["unit"]}
    return {"correct": bool(result["correct"]) and done.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        with open(os.path.join(HERE, "workloads.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read the benchmark definition: %s" % error)
    if args.workload != "all" and args.workload not in spec["workloads"]:
        fail("unknown workload %r" % args.workload)

    build()
    if args.workload != "all":
        result = run_workload(benchmark, spec, args.workload, args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in benchmark["workloads"]:
            name = workload["name"]
            one = run_workload(benchmark, spec, name, args)
            print("# result %s: %s" % (name, json.dumps(one)))
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for metric, measured in one["metrics"].items():
                result["metrics"][name + "/" + metric] = measured
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
