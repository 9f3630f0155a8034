#!/usr/bin/env bash
# One-command reproduction: build, full test suite, every figure and table,
# with outputs captured at the repo root. The build and test steps are the
# tier-1 commands (ROADMAP.md), so an existing build/ is reused whatever
# generator configured it.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j) 2>&1 | tee test_output.txt
for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

echo
echo "Done. See EXPERIMENTS.md for paper-vs-measured commentary."
