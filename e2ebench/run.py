#!/usr/bin/env python3
"""End-to-end benchmark of the djx library (DJXPerf reproduction).

Builds e2ebench/ (the djx library from ../src plus the djxbench program)
under .bench_build/ and runs one workload:

    python3 e2ebench/run.py --workload numa_remote --seed 1 --seconds 55 --trace 0

The last stdout line is the JSON result {correct, attempted, failed,
metrics}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Full records (seed, host fingerprint, deterministic counts,
spans) are written to .bench_build/e2ebench-out/.

    python3 e2ebench/run.py --self-test

runs every workload at a tiny size (fig4_suites too, which BENCHMARK.json
does not gate) and checks the emitted metric names against BENCHMARK.json,
the correctness check, and that the deterministic counts repeat across two
runs, across 1, 2 (the measured default) and 4 host workers, and between
the untraced and the traced run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_build", "e2ebench-out")
EXE = os.path.join(BUILD, "djxbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds djxbench; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "djxbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_bench(args, capture=True):
    """Runs djxbench; returns (returncode, stdout)."""
    os.makedirs(OUT, exist_ok=True)
    try:
        p = subprocess.run([EXE, "--out-dir", OUT] + args, text=True,
                           stdout=subprocess.PIPE if capture else None,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: djxbench timed out after %d s" % RUN_TIMEOUT_S)
    return p.returncode, p.stdout or ""


def result_record(workload, seed, trace):
    return load_json(os.path.join(
        OUT, "result-%s-seed%d-trace%d.json" % (workload, seed, trace)))


def self_test(bench):
    meta = load_json(os.path.join(HERE, "meta.json"))
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    seed = meta["default_seed"]
    problems = []

    if sorted(meta["per_layer"]) != sorted(layer_names):
        problems.append("meta.json per_layer entries differ from "
                        "BENCHMARK.json per_layer")
    for name in meta["digests"]:
        runs = []
        for jobs, trace in ((2, 0), (2, 0), (1, 0), (4, 0), (2, 1)):
            code, out = run_bench(["--workload", name, "--seed", str(seed),
                                   "--seconds", "0", "--trace", str(trace),
                                   "--tiny", "--jobs", str(jobs)])
            label = "%s jobs=%d trace=%d" % (name, jobs, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (label, code))
                continue
            line = json.loads(out.strip().splitlines()[-1])
            want = layer_names if trace else e2e_names
            if list(line["metrics"]) != want:
                problems.append("%s: metric names %s, BENCHMARK.json has %s"
                                % (label, list(line["metrics"]), want))
            if not line["correct"] or line["failed"]:
                problems.append("%s: correctness check failed" % label)
            runs.append((label, result_record(name, seed, trace)
                         ["deterministic"]))
        for label, det in runs[1:]:
            if det != runs[0][1]:
                problems.append("%s: deterministic counts %s differ from "
                                "%s: %s" % (label, det, runs[0][0],
                                            runs[0][1]))
        print("self-test %-18s %d run(s) checked" % (name, len(runs)))
    for p in problems:
        print("FAIL: " + p)
    print("self-test: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    if args.self_test:
        return self_test(bench)

    meta = load_json(os.path.join(HERE, "meta.json"))
    if args.workload not in meta["digests"]:
        ap.error("unknown --workload %r" % args.workload)
    seed = meta["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    cmd = ["--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if seed == meta["default_seed"]:
        cmd += ["--expect-digest", meta["digests"][args.workload]]
    code, _ = run_bench(cmd, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
