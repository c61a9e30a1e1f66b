#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload image_approx --seed 1 \
        --seconds 25 --trace 0

Builds perfbench/ (and the library sources it links) into .bench_build/,
then runs one workload in its own process. The benchmark's output passes
through unchanged; its last line is the JSON result. Build output goes to
stderr. Exits non-zero when the build, the run or any check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("image_approx", "ingest_mixed")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def build(env):
    """Configures once, then builds the benchmark binary (a no-op when
    nothing changed). Returns the binary's path."""
    out = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j",
                    "3"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    # Keep the compiler's and the run's temporary files inside the checkout.
    tmp_dir = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    run_name = f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = os.path.join(BUILD, "work", run_name)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--trace-out",
               os.path.join(trace_dir, f"{args.workload}.tsv")]
    process = subprocess.Popen(command, env=env)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
