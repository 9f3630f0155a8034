"""mstk-lint: project-invariant static analysis for the mstk simulator.

One stdlib-only engine runs every rule: each file is read once, its comments
and literals are blanked out with offsets kept, and the rules match over the
result. Nothing is cached between runs, so a rule edit takes effect on the
next run.

Package layout:
  source.py     file model (comment stripping, offsets, suppressions)
  context.py    whole-program context: the include graph D2 walks
  rules/        one module per rule family (registry in rules/__init__.py)
  fixes.py      --fix rewriters (U1, N1, T2)
  cli.py        argument parsing, rule passes, reporters, exit codes
"""

# Reported in the --json report; bump it when the report format changes.
LINT_VERSION = "3.0.0"

# Exit codes (also documented in cli.py and scripts/run_lint.sh).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
