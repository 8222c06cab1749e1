#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout and runs one workload.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/repobench
(default .bench_build/repobench) and is reused by later runs. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. See repobench/README.md for workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hotstock", "scaleout", "scanmix", "recovery")


def build(build_dir):
    """Configures (once) and builds repobench; returns the binary path."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch files inside
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "repobench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "repobench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("repobench: no program sources (src/) next to repobench/",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "repobench"))
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    json.loads(lines[-1])  # the result line must parse
    return 0


if __name__ == "__main__":
    sys.exit(main())
