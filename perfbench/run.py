#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the txc library and the txcperf driver from source into
.bench_build/perfbench (CMake, Release), runs one workload and passes its
output through; the last line of standard output is the run's JSON result and
the exit code is non-zero when a correctness check failed.  Build output goes
to standard error.

--smoke runs every workload briefly, untraced and traced, and checks that
each run passes its correctness checks and reports exactly the metrics that
BENCHMARK.json names (the end-to-end set untraced, the per-layer set traced).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "txcperf")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("kv-read", "kv-write", "txq")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the driver up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", BUILD, "--target", "txcperf", "-j", "4"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS, exist_ok=True)
        command += ["--span-dir", SPANS]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return done.returncode, done.stdout


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke():
    """Every workload, briefly, untraced and traced, with all checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {metric["name"] for metric in spec["end_to_end"]},
        1: {metric["name"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(workload, 1, 1, trace)
            sys.stdout.write(out)
            result = last_json(out)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result.get("correct"):
                problems.append(f"{label}: exit {code}, no passing result")
                continue
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(
                    f"{label}: missing {sorted(expected[trace] - names)}, "
                    f"unexpected {sorted(names - expected[trace])}")
            if result["attempted"] < 1:
                problems.append(f"{label}: no operation attempted")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and self-check")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")

    os.chdir(ROOT)
    build()
    if args.smoke:
        return smoke()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
