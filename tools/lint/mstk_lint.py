#!/usr/bin/env python3
"""mstk-lint: project-specific static analysis for the MEMS storage simulator.

This file is the command-line entry point; the implementation lives in the
mstklint/ package next to it (file model, include graph, rules, fixers). Run
`mstk_lint.py --list-rules` for the rule catalog, or see CONTRIBUTING.md.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from mstklint.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
