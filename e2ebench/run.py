#!/usr/bin/env python3
"""Builds and runs the FairMove end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds e2ebench/ (the library from src/ plus the driver) under
.bench_build/e2ebench, runs one workload with FAIRMOVE_THREADS pinned to the
CPUs this process may use, and forwards the driver's report. The last line of
standard output is the result JSON. Exits non-zero without a result when the
sources are missing, the build fails, or the driver crashes or hangs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the checkout is a git repository, else a hash of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
        return "git-" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build(jobs):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs),
                    "--target", "e2ebench"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "e2ebench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FairMove sources (src/) not found next to e2ebench/")
    cpus = len(os.sched_getaffinity(0))
    try:
        binary = build(cpus)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    # A clean environment: FAIRMOVE_* knobs (telemetry, exporters, fault
    # schedules) would change what is measured or write outside the checkout.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FAIRMOVE_")}
    env["FAIRMOVE_THREADS"] = str(cpus)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("driver exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("driver printed no result")
    expected = expected_metrics(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        sys.stdout.write(proc.stdout)
        fail("metrics %s differ from BENCHMARK.json's %s" %
             (sorted(result["metrics"]), sorted(expected)))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
