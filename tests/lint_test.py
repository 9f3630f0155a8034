#!/usr/bin/env python3
"""Fixture tests for tools/lint/mstk_lint.py (ctest label: lint).

Plain python (no pytest dependency): each case calls the linter's main() in
process against a fixture under tests/lint/fixtures/ and asserts on exit
status, finding counts, and report bytes; one case runs the script itself
as a subprocess to pin its exit codes. Run directly or via
`ctest -L lint` / `scripts/run_lint.sh --selftest`.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(ROOT, "tools", "lint", "mstk_lint.py")
FIXTURES = os.path.join(ROOT, "tests", "lint", "fixtures")

sys.path.insert(0, os.path.dirname(LINT))
from mstklint.cli import main as lint_main  # noqa: E402

FAILURES = []


def run(*args):
    """Runs mstk-lint in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lint_main(list(args))
        except SystemExit as e:  # argparse errors
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print("  [%s] %s%s" % (status, name, (" -- " + detail) if (detail and not cond) else ""))
    if not cond:
        FAILURES.append(name)


def fixture(name):
    return os.path.join(FIXTURES, name)


def findings_of(stdout, rule):
    return [l for l in stdout.splitlines() if (": %s: " % rule) in l]


def test_list_rules():
    rc, out, _ = run("--list-rules")
    check("list-rules exits 0", rc == 0)
    for rid in ("D1", "D2", "U1", "U2", "N1", "L1", "T2", "S1", "W1"):
        check("list-rules mentions %s" % rid, rid in out)


def test_rule(rule, bad, good_list, expect_bad):
    rc, out, err = run("--rules", rule, "--all-scopes", fixture(bad))
    n = len(findings_of(out, rule))
    check("%s flags %s (rc)" % (rule, bad), rc == 1, "rc=%d err=%s" % (rc, err))
    check("%s finds %d in %s" % (rule, expect_bad, bad), n == expect_bad,
          "got %d:\n%s" % (n, out))
    for good in good_list:
        rc, out, err = run("--rules", rule, "--all-scopes", fixture(good))
        check("%s clean on %s" % (rule, good), rc == 0, "out=%s err=%s" % (out, err))


def test_suppression():
    rc, out, _ = run("--rules", "D1", "--all-scopes", fixture("suppress.cc"))
    n = len(findings_of(out, "D1"))
    check("suppression: 2 of 4 violations still fire", n == 2, out)
    check("suppression: nonzero exit for the unsuppressed pair", rc == 1)
    lines = sorted(int(l.split(":")[1]) for l in findings_of(out, "D1"))
    # rand() calls on the allow(U2) line and the bare line must fire; the
    # same-line and line-above allow(D1) ones must not.
    with open(fixture("suppress.cc")) as f:
        src = f.read().splitlines()
    for ln in lines:
        check("suppression: surviving finding at line %d is unsuppressed" % ln,
              "allow(D1)" not in src[ln - 1] and "allow(D1)" not in src[ln - 2])


def test_json_report():
    with tempfile.TemporaryDirectory() as tmp:
        out1 = os.path.join(tmp, "a.json")
        out2 = os.path.join(tmp, "b.json")
        run("--rules", "D1", "--all-scopes", "--json", out1, "-q", fixture("d1_bad.cc"))
        run("--rules", "D1", "--all-scopes", "--json", out2, "-q", fixture("d1_bad.cc"))
        with open(out1, "rb") as a, open(out2, "rb") as b:
            bytes1, bytes2 = a.read(), b.read()
        check("json report is byte-stable across runs", bytes1 == bytes2)
        report = json.loads(bytes1)
        for key in ("tool", "rules", "findings", "counts", "total"):
            check("json report has key %r" % key, key in report)
        check("json findings are sorted",
              report["findings"] == sorted(report["findings"],
                                           key=lambda f: (f["path"], f["line"],
                                                          f["col"], f["rule"])))
        check("json counts match findings", report["total"] == len(report["findings"])
              and report["total"] == sum(report["counts"].values()))
        for f in report["findings"]:
            check("finding rule is D1", f["rule"] == "D1")
            break


def test_fix_roundtrip():
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("u1_bad.h", "n1_bad.h"):
            shutil.copy(fixture(name), os.path.join(tmp, name))
        paths = [os.path.join(tmp, n) for n in ("u1_bad.h", "n1_bad.h")]
        rc, _, _ = run("--rules", "U1,N1", "--all-scopes", "--fix", "-q", *paths)
        check("fix run reports findings", rc == 1)
        rc, out, _ = run("--rules", "U1,N1", "--all-scopes", *paths)
        check("tree is clean after --fix", rc == 0, out)
        with open(paths[0]) as f:
            fixed = f.read()
        check("--fix rewrote double to TimeMs", "TimeMs timeout_ms" in fixed, fixed)
        with open(paths[1]) as f:
            fixed = f.read()
        check("--fix inserted [[nodiscard]]", "[[nodiscard]] virtual" in fixed, fixed)


def test_w1():
    # W1 judges allow() staleness only for rules that actually ran, so it is
    # exercised together with D1.
    rc, out, _ = run("--rules", "D1,W1", "--all-scopes", fixture("w1_bad.cc"))
    n = len(findings_of(out, "W1"))
    check("W1 flags w1_bad.cc (rc)", rc == 1)
    check("W1 finds 2 in w1_bad.cc", n == 2, out)
    check("W1 names the unknown rule", "Q9" in out, out)
    rc, out, _ = run("--rules", "D1,W1", "--all-scopes", fixture("w1_good.cc"))
    check("W1 clean on w1_good.cc", rc == 0, out)
    # A W1-only run must not call a D1 allow stale: D1 was never evaluated.
    rc, out, _ = run("--rules", "W1", "--all-scopes", fixture("w1_bad.cc"))
    check("W1 alone skips allows for unchecked rules",
          len([l for l in findings_of(out, "W1") if "allow(D1)" in l]) == 0, out)


def test_fix_idempotence():
    # fix(fix(t)) == fix(t) over every fixture, with every rule enabled.
    names = sorted(os.listdir(FIXTURES))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            shutil.copy(fixture(name), os.path.join(tmp, name))
        paths = [os.path.join(tmp, n) for n in names]
        run("--all-scopes", "--fix", "-q", *paths)
        first = {n: open(os.path.join(tmp, n), "rb").read() for n in names}
        rc, out, _ = run("--all-scopes", "--fix", "-q", *paths)
        second = {n: open(os.path.join(tmp, n), "rb").read() for n in names}
        check("--fix is idempotent over all fixtures", first == second,
              "changed: %s" % [n for n in names if first[n] != second[n]])
        check("second fix pass applies 0 fixes", "applied 0 fix(es)" in out, out)


def test_t2_fix():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t2_bad.cc")
        shutil.copy(fixture("t2_bad.cc"), path)
        rc, _, _ = run("--rules", "T2", "--all-scopes", "--fix", "-q", path)
        check("T2 fix run reports findings", rc == 1)
        with open(path) as f:
            fixed = f.read()
        check("--fix rewrote cast-divide to UsToMs",
              "arrival_ms = UsToMs(timestamp_us);" in fixed, fixed)
        check("--fix rewrote cast-round to MsToUs",
              "timestamp_us = MsToUs(arrival_ms);" in fixed, fixed)
        check("--fix left the ambiguous raw scaling alone",
              "arrival_ms * kUsPerMs" in fixed, fixed)
        rc, out, _ = run("--rules", "T2", "--all-scopes", path)
        check("only the ambiguous statement remains after --fix",
              len(findings_of(out, "T2")) == 1, out)


def test_missing_path():
    # A renamed directory must fail the gate, not silently drop out of it.
    rc, out, err = run("src", "toolz")
    check("a missing path exits 2", rc == 2, "rc=%d out=%s" % (rc, out))
    check("the missing path is named", "no such path: toolz" in err, err)


def test_entry_point():
    # The script as CI runs it: exit 1 on findings, 2 on an unknown rule.
    def script(*args):
        return subprocess.run([sys.executable, LINT] + list(args), cwd=ROOT,
                              capture_output=True, text=True)
    proc = script("--rules", "D1", "--all-scopes", "-q", fixture("d1_bad.cc"))
    check("mstk_lint.py exits 1 on findings", proc.returncode == 1,
          proc.stdout + proc.stderr)
    proc = script("--rules", "NOPE", fixture("d1_good.cc"))
    check("mstk_lint.py exits 2 on an unknown rule", proc.returncode == 2,
          proc.stderr)


def test_repo_is_clean():
    rc, out, err = run("--timings")
    check("full tree lints clean (the repaired-tree gate)", rc == 0,
          "out=%s err=%s" % (out, err))
    check("--timings prints the per-rule table", "per-rule timings" in out, out)


def main():
    print("mstk-lint fixture tests")
    test_list_rules()
    test_rule("D1", "d1_bad.cc", ["d1_good.cc"], expect_bad=7)
    test_rule("D2", "d2_bad.cc", ["d2_good.cc", "d2_noreach.cc"], expect_bad=2)
    test_rule("U1", "u1_bad.h", ["u1_good.h"], expect_bad=4)
    test_rule("U2", "u2_bad.cc", ["u2_good.cc"], expect_bad=3)
    test_rule("N1", "n1_bad.h", ["n1_good.h"], expect_bad=5)
    test_rule("L1", "l1_bad.cc", ["l1_good.cc"], expect_bad=5)
    test_rule("T2", "t2_bad.cc", ["t2_good.cc"], expect_bad=4)
    test_rule("S1", "s1_bad.cc", ["s1_good.cc"], expect_bad=4)
    test_w1()
    test_suppression()
    test_json_report()
    test_fix_roundtrip()
    test_fix_idempotence()
    test_t2_fix()
    test_missing_path()
    test_entry_point()
    test_repo_is_clean()
    if FAILURES:
        print("FAILED: %d case(s): %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("all lint fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
