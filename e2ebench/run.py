#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload stream_small --seed 1 --seconds 20 --trace 0

Builds the program's libraries from src/ and the benchmark binaries from
e2ebench/ into .bench_build/e2ebench (first run only; later runs rebuild
incrementally), then runs one workload.  --trace 0 runs e2e_bench and
reports the end-to-end metrics; --trace 1 runs e2e_bench_traced, which
re-executes the same inputs with spans and allocation counting, reports the
per-layer metrics and writes its spans under .bench_build/e2ebench/trace.
The last line of standard output is the result object.  See README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("stream_small", "stream_wide", "eco_service")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr only."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-8000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found: expected src/ beside e2ebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], 600)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    binary = os.path.join(BUILD, "e2e_bench_traced" if args.trace else "e2e_bench")
    # The program reads CONG93_* variables (threads, SIMD mode, fault
    # injection); the benchmark fixes those itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONG93_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace-dir", os.path.join(BUILD, "trace")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.decode(errors="replace").splitlines()
    if p.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail("benchmark exited with code %d" % p.returncode, p.returncode)
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    names = declared_metrics(args.trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        fail("reported metrics differ from BENCHMARK.json: %s" % sorted(result["metrics"]))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
