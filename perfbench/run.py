#!/usr/bin/env python3
"""End-to-end benchmark of manetcap: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload slots-b-large --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (CMake, RelWithDebInfo as the repository's own build)
into .bench_build/ on first use, then
runs the workload serially for about --seconds. With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run (spans go to .bench_build/spans/). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is the run manifest with each metric's samples, quartiles and
sample count. The binary reports raw per-operation samples; this script
reduces them to medians and checks the metric set against BENCHMARK.json. Exit code 0 when the run completed (even with failed operations),
1 when it could not run at all.

    python3 perfbench/run.py --self-test     # build and run the self-tests
    python3 perfbench/run.py --make-reference WORKLOAD SEED...
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Fresh processes timed for setup_s: each pays a cold first build, so a
# process-wide cache cannot hide the cost; the median damps host noise.
SETUP_SAMPLES = 21
# A run must finish within this many seconds past --seconds.
RUN_GRACE_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "slotsim.h")):
        log("perfbench: library sources not found under", ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def summarize(unit, samples):
    """Median, q1 and q3 (statistics.quantiles, n=4) of a metric's samples;
    value None when there is no sample or one is not a finite number."""
    out = {"value": None, "unit": unit, "samples": len(samples),
           "q1": None, "q3": None, "raw": samples}
    if not samples or any(v is None or not math.isfinite(v) for v in samples):
        return out
    out["value"] = statistics.median(samples)
    if len(samples) < 2:
        out["q1"] = out["q3"] = out["value"]
    else:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    return out


def measure_setup(workload, seed):
    """setup_s samples, each the first build of a fresh process."""
    samples, errors = [], []
    for _ in range(SETUP_SAMPLES):
        r = subprocess.run([BINARY, "setup", "--workload", workload,
                            "--seed", str(seed)],
                           capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            errors.append("setup exited %d: %s" % (r.returncode,
                                                   r.stderr.strip()))
            continue
        out = json.loads(r.stdout.strip().splitlines()[-1])
        if out["error"]:
            errors.append("setup: " + out["error"])
        else:
            samples.append(out["setup_s"])
    return samples, errors


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def declared_metrics(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    if not os.path.isfile(SPEC):
        log("perfbench: BENCHMARK.json not found under", ROOT)
        return 1
    declared = declared_metrics(load_spec(), args.trace)
    if not build(["perfbench"]):
        log("perfbench: build failed")
        return 1
    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--reference-dir", REFERENCE_DIR, "--git",
           git_describe()]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if r.returncode != 0 or not r.stdout.strip():
        log(r.stderr.strip())
        log("perfbench: run exited with code", r.returncode)
        return 1
    report = json.loads(r.stdout.strip().splitlines()[-1])
    metrics = {name: summarize(m["unit"], m["samples"])
               for name, m in report["metrics"].items()}
    failures = list(report["failures"])
    attempted, failed = report["attempted"], report["failed"]

    if not args.trace:
        samples, errors = measure_setup(args.workload, args.seed)
        attempted += SETUP_SAMPLES
        failed += len(errors)
        failures += errors
        metrics["setup_s"] = summarize("s", samples)

    correct = report["correct"] and failed == 0
    if sorted(declared) != sorted(metrics):
        failures.append("metric set %s differs from BENCHMARK.json %s"
                        % (sorted(metrics), sorted(declared)))
        correct = False
    for name, m in metrics.items():
        if m["value"] is None:
            failures.append("metric %s has no finite value" % name)
            correct = False

    print(json.dumps({"manifest": report["manifest"], "metrics": metrics,
                      "failures": failures}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


def check_metric_names(spec):
    """Problems with the metric names BENCHMARK.json declares."""
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    problems = ["invalid metric name %r" % n for n in names
                if not METRIC_NAME.fullmatch(n)]
    if len(set(names)) != len(names):
        problems.append("a metric name is declared twice")
    return problems


def self_test():
    problems = check_metric_names(load_spec())
    for bad in ("", "has space", "slash/name", "_lead", "a:b", "x\"y",
                "a" * 65):
        if not check_metric_names({"end_to_end": [{"name": bad}],
                                   "per_layer": []}):
            problems.append("metric name %r was accepted" % bad)
    for p in problems:
        print("FAIL:", p)
    if not build(["perfbench_selftest"]):
        return 1
    code = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]
                          ).returncode
    return 1 if problems or code != 0 else 0


def make_reference(workload, seeds):
    """Prints reference lines for perfbench/reference/<workload>.ref."""
    if not build(["perfbench"]):
        return 1
    for seed in seeds:
        r = subprocess.run([BINARY, "reference", "--workload", workload,
                            "--seed", str(seed)], capture_output=True,
                           text=True)
        if r.returncode != 0:
            log(r.stderr.strip())
            return 1
        print(r.stdout.strip(), flush=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--make-reference", nargs="+", metavar="ARG")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.make_reference:
        workload, *seeds = args.make_reference
        return make_reference(workload, [int(s) for s in seeds])
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
