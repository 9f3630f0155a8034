#!/usr/bin/env bash
# Runs mstk-lint over the tree (the blocking CI `lint` job).
#
# Usage:
#   scripts/run_lint.sh [--json OUT.json] [--timings]
#   scripts/run_lint.sh --selftest          run the linter's fixture suite
#
# Exit codes (mirrors tools/lint/mstk_lint.py):
#   0  clean
#   1  findings present
#   2  usage error
# --selftest exits 0 when every fixture check passes and 1 otherwise.
#
# The linter is stdlib-only python3; it needs no build tree.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"

if [[ "${1:-}" == "--selftest" ]]; then
  exec python3 tests/lint_test.py
fi

EXTRA_ARGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --json)
      EXTRA_ARGS+=(--json "${2:?--json needs a path}")
      shift 2
      ;;
    --timings)
      EXTRA_ARGS+=(--timings)
      shift
      ;;
    *)
      echo "run_lint.sh: unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

exec python3 tools/lint/mstk_lint.py "${EXTRA_ARGS[@]}" src tools bench examples
