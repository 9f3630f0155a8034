"""mstk-lint command line: argument parsing, the two rule passes, reporting.

Exit codes (stable contract, see also scripts/run_lint.sh):
  0  clean
  1  findings present
  2  usage error: unknown rule, missing path, or no input files
"""

import argparse
import json
import os
import sys
import time

from . import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, LINT_VERSION
from .context import Context
from .fixes import FIXABLE_RULES, apply_fixes
from .rules import RULES
from .source import Finding, load_file

_DEFAULT_PATHS = ["src", "tools", "bench", "examples"]
# The repo root, three levels above this package. Relative paths on the
# command line and every reported path are relative to it.
_ROOT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", ".."))


def collect_paths(root, args_paths):
    """Source files under `args_paths`, or None if any path does not exist.

    A missing path is an error, not a warning: a renamed directory must not
    drop out of the gate unnoticed.
    """
    exts = (".h", ".hpp", ".cc", ".cpp", ".cxx")
    out = []
    missing = False
    for p in args_paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            out.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(exts):
                        out.append(os.path.join(dirpath, fn))
        else:
            sys.stderr.write("mstk-lint: error: no such path: %s\n" % p)
            missing = True
    return None if missing else out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mstk-lint",
        description=sys.modules["mstklint"].__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint, relative to the "
                             "repo root (default: %s)"
                             % " ".join(_DEFAULT_PATHS))
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write a machine-readable report (byte-stable)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule filter, e.g. D1,U2")
    parser.add_argument("--all-scopes", action="store_true",
                        help="apply every rule to every file regardless of its "
                             "default path scope (fixture testing)")
    parser.add_argument("--fix", action="store_true",
                        help="rewrite files to repair U1 (double -> TimeMs), "
                             "N1 ([[nodiscard]]) and unambiguous T2 "
                             "(UsToMs/MsToUs) findings in place")
    parser.add_argument("--timings", action="store_true",
                        help="print a per-rule timing table")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-finding output; summary only")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rid in sorted(RULES):
            print("%s  %s" % (rid, RULES[rid].summary))
        return EXIT_CLEAN

    selected = sorted(RULES)
    if args.rules:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in RULES]
        if unknown:
            sys.stderr.write("mstk-lint: unknown rule(s): %s\n"
                             % ", ".join(unknown))
            return EXIT_USAGE

    paths = collect_paths(_ROOT, args.paths or _DEFAULT_PATHS)
    if paths is None:
        return EXIT_USAGE
    if not paths:
        sys.stderr.write("mstk-lint: no input files\n")
        return EXIT_USAGE
    files = [load_file(_ROOT, p) for p in paths]
    ctx = Context(_ROOT, files)

    timings = {}

    def timed(rid, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            timings[rid] = timings.get(rid, 0.0) + (time.perf_counter() - t0)

    # -- first pass: every in-scope rule, before suppression ----------------
    raw_by_file = {}      # rel -> [Finding] (pre-suppression)
    checked_by_file = {}  # rel -> set(rule ids actually evaluated)
    first_pass = [rid for rid in selected if not RULES[rid].post]
    post_pass = [rid for rid in selected if RULES[rid].post]

    for sf in files:
        in_scope = [rid for rid in first_pass
                    if args.all_scopes or RULES[rid].scope(sf.rel)]
        checked_by_file[sf.rel] = set(in_scope)
        raw = []
        for rid in in_scope:
            raw.extend(timed(rid, lambda r=rid: list(RULES[r].check(sf, ctx))))
        raw_by_file[sf.rel] = raw

    findings = [f for sf in files for f in raw_by_file[sf.rel]
                if not sf.suppressed(f.rule, f.line)]

    # -- post pass (W1 consumes the raw findings) ---------------------------
    ctx.raw_findings_by_file = raw_by_file
    ctx.checked_rules_by_file = checked_by_file
    for rid in post_pass:
        r = RULES[rid]
        for sf in files:
            if not args.all_scopes and not r.scope(sf.rel):
                continue
            for f in timed(rid, lambda s=sf, rr=r: list(rr.check(s, ctx))):
                if not sf.suppressed(rid, f.line):
                    findings.append(f)

    findings.sort(key=Finding.key)

    # -- fixes --------------------------------------------------------------
    if args.fix:
        fixed = apply_fixes(
            files, [f for f in findings if f.rule in FIXABLE_RULES])
        sys.stdout.write("mstk-lint: applied %d fix(es); re-run to verify\n"
                         % fixed)

    # -- report -------------------------------------------------------------
    if not args.quiet:
        for f in findings:
            sys.stdout.write("%s:%d:%d: %s: %s\n"
                             % (f.path, f.line, f.col, f.rule, f.message))
    counts = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    summary = ", ".join("%s=%d" % kv for kv in sorted(counts.items())) or "clean"
    sys.stdout.write("mstk-lint: %d file(s), %d finding(s) (%s)\n"
                     % (len(files), len(findings), summary))

    if args.timings:
        sys.stdout.write("mstk-lint: per-rule timings:\n")
        for rid in sorted(timings):
            sys.stdout.write("  %-10s %8.1f ms\n" % (rid, timings[rid] * 1e3))

    if args.json:
        report = {
            "tool": "mstk-lint",
            "version": LINT_VERSION,
            "rules": [{"id": rid, "summary": RULES[rid].summary}
                      for rid in sorted(RULES)],
            "selected_rules": selected,
            "files_scanned": len(files),
            "counts": counts,
            "total": len(findings),
            "findings": [f.as_dict() for f in findings],
        }
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=2, sort_keys=True)
            out.write("\n")

    return EXIT_FINDINGS if findings else EXIT_CLEAN
