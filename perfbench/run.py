#!/usr/bin/env python3
"""Build and run the mstk repository benchmark.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload sptf_random --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the benchmark program plus
the mstk libraries from src/) into .bench_build/ at the repository root;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. At the pinned seed the
run also checks its output digest against perfbench/pinned.json. Spans of a
--trace 1 run are written to .bench_out/<workload>.spans.tsv.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not be built or the arguments are wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SPANS_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "mstk_perfbench")
# One run of the benchmark binary ends in about --seconds plus one pass;
# anything much longer is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds the benchmark binary."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(2, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mstk_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as f:
        pinned = json.load(f)
    if seed != pinned["seed"]:
        return None
    return pinned["digests"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Anything else (the benchmark's test knobs) goes to the binary as is.
    args, passthrough = parser.parse_known_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(SPANS_DIR, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", SPANS_DIR]
    expected = pinned_digest(args.workload, args.seed)
    if expected and "--scale" not in passthrough:
        cmd += ["--expect-digest", expected]
    cmd += passthrough
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
