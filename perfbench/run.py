#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library (../src) and the benchmark binary
are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); an up-to-date build is a no-op. Build output goes
to stderr. The binary's stdout is passed through: its last line is the
result JSON.

A traced run (--trace 1) reports its overhead against the records/s of the
latest untraced run of the same workload in this build directory; when
there is none, an untraced run with the same arguments is made first.
"""

import argparse
import json
import os
import subprocess
import sys


def build(build_dir):
    source = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def run(binary, args, trace, baseline, out_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    if baseline:
        cmd += ["--baseline-records-per-s", repr(baseline)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    out_dir = os.path.join(build_dir, "run")
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    latest = os.path.join(results_dir, args.workload + ".json")

    baseline = None
    if args.trace:
        if os.path.exists(latest):
            with open(latest) as f:
                baseline = json.load(f)["metrics"]["records_per_s"]["value"]
        else:
            code, out, result = run(binary, args, 0, None, out_dir)
            if result is None:
                sys.stdout.write(out)
                return code or 1
            baseline = result["metrics"]["records_per_s"]["value"]

    code, out, result = run(binary, args, args.trace, baseline, out_dir)
    sys.stdout.write(out)
    if result is None:
        return code or 1
    if not args.trace and result["correct"]:
        with open(latest, "w") as f:
            json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
