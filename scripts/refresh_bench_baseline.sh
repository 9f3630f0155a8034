#!/usr/bin/env bash
# Regenerate the `bench` section of BENCH_baseline.json in place: the
# events/sec throughput numbers (machine-dependent, gated by a one-sided
# ratio floor). Simulated outputs are pinned by scripts/goldens.py instead.
#
# Run this on purpose, together with the performance change that moved the
# numbers, and say why in the commit message — the CI gate is only as honest
# as the baseline it compares against. See CONTRIBUTING.md ("Benchmark
# baseline policy").
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target events_per_sec

# Wall-clock: take the best of several repeats to shave noise.
./"$BUILD"/bench/events_per_sec --repeat 5 --json "$SCRATCH/bench.json"
python3 scripts/check_bench_tolerance.py bench-write BENCH_baseline.json "$SCRATCH/bench.json"

echo
git --no-pager diff --stat BENCH_baseline.json || true
echo "BENCH_baseline.json refreshed. Commit it together with the change that moved the numbers."
