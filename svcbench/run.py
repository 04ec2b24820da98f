#!/usr/bin/env python3
"""Builds and runs the service benchmark (see svcbench/README.md).

Run from the repository root:

    python3 svcbench/run.py --workload hot_hits --seed 1 --seconds 20 --trace 0
    python3 svcbench/run.py --self-test      # the benchmark's own tests

The benchmark is compiled from the repository's sources into the build
directory named by $CARGO_TARGET_DIR (default .bench_build), in Release
mode, on first use. The last line of standard output is the result JSON;
its metric names and units are checked against BENCHMARK.json before it is
printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("svcbench: no library sources next to the benchmark; cannot build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("svcbench: build step failed:", " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "svcbench")
    if not build(build_dir):
        return 2
    if args.self_test:
        tests = os.path.join(build_dir, "svcbench_tests")
        if not os.path.exists(tests):
            log("svcbench: GoogleTest not found; tests were not built")
            return 2
        return subprocess.run([tests]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    # Relative paths keep the unix socket path short.
    workdir = os.path.relpath(os.path.join(build_root, "work"), ROOT)
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    cmd = [os.path.join(build_dir, "svcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"svcbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"svcbench: no result (exit code {proc.returncode})")
        return proc.returncode or 4
    for line in lines[:-1]:
        log(line)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("svcbench: metrics differ from BENCHMARK.json:",
            "missing", sorted(set(want) - set(got)),
            "extra", sorted(set(got) - set(want)),
            "unit mismatch", sorted(k for k in set(want) & set(got) if want[k] != got[k]))
        return 5
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
