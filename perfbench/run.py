#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see METRICS.md).

    python3 perfbench/run.py --workload map_stage --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. It configures and builds perfbench/ (the
engine libraries from src/ plus the perfbench binary) in .bench_build with
CMake, checks that BENCHMARK.json lists exactly the metrics the binary
reports, then runs one workload. The binary's last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is the binary's: nonzero when an output was wrong, a run could
not finish, or the sources are missing.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """Identifies the code under test: the git commit when there is one, and
    always a digest of the engine and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if head.returncode == 0:
            ident = "git:" + head.stdout.strip()[:12] + " " + ident
    return ident


def check_metric_table():
    """BENCHMARK.json must list exactly the binary's metrics, in its units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True, text=True,
                            check=True)
    table = json.loads(listed.stdout)
    for key in ("end_to_end", "per_layer"):
        want = {m["name"]: (m["unit"], m["better"]) for m in table[key]}
        have = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        if want != have:
            missing = sorted(set(want) - set(have))
            extra = sorted(set(have) - set(want))
            fail("BENCHMARK.json %s disagrees with the binary (missing %s, extra %s)"
                 % (key, missing, extra))
    return [w["name"] for w in bench["workloads"]]


def run_one(workload, args, ident):
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", WORK_DIR,
           "--source-id", ident]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's statistics")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_stats_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    workloads = check_metric_table()
    ident = source_id()
    if args.workload != "all":
        sys.exit(run_one(args.workload, args, ident))
    if workloads is None:
        fail("--workload all needs BENCHMARK.json")
    codes = {}
    for workload in workloads:
        print("==== %s ====" % workload, flush=True)
        codes[workload] = run_one(workload, args, ident)
    bad = [w for w, code in codes.items() if code != 0]
    print(json.dumps({"workloads": codes}))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
