#!/usr/bin/env python3
"""Command-line tests for mstk_sweep and the benches' shared flags (ctest
label: integration): a malformed or out-of-range number prints the usage and
exits 2, in mstk_sweep and in BenchOptions::Parse (run through one bench),
and `--jobs 0` still means all cores.

    python3 tests/mstk_sweep_cli_test.py build/tools/mstk_sweep \\
        build/bench/fig6_mems_scheduling
"""

import os
import subprocess
import sys
import tempfile

SWEEP, BENCH = (os.path.abspath(p) for p in sys.argv[1:3])
FAILURES = []


def run(*args):
    proc = subprocess.run([str(a) for a in args], capture_output=True, text=True)
    return proc.returncode, proc.stderr


def check(name, cond, detail=""):
    print("  [%s] %s%s" % ("ok" if cond else "FAIL", name, "" if cond else " -- " + detail))
    if not cond:
        FAILURES.append(name)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "smoke.json")
        rc, err = run(SWEEP, "smoke", "--trials", 1, "--jobs", 0, "--seed", 0, "--json", out)
        check("--jobs 0 --seed 0 runs", rc == 0 and os.path.exists(out), err)
        bad = os.path.join(tmp, "bad.json")
        for args in (["--trials", "2x"], ["--trials", "-1"], ["--trials", "0"],
                     ["--trials", ""], ["--jobs", "-1"], ["--jobs", "4.5"],
                     ["--jobs", "99999999999"], ["--seed", "-5"], ["--seed", "1e3"],
                     ["--seed", "18446744073709551615"], ["--seed"]):
            rc, err = run(SWEEP, "smoke", "--json", bad, *args)
            check("mstk_sweep %s: usage, exit 2" % " ".join(args),
                  rc == 2 and "usage:" in err, "rc=%d %s" % (rc, err))
        check("bad arguments write nothing", not os.path.exists(bad))
    for args in (["--trials", "2x"], ["--trials", "0"], ["--jobs", "-2"], ["--seed", "-5"],
                 ["--fault-rate", "1.5"], ["--fault-rate", "-0.1"], ["--fault-rate", "nan"],
                 ["--clients", "0"], ["--clients", "3x"]):
        rc, err = run(BENCH, *args)
        check("%s %s: usage, exit 2" % (os.path.basename(BENCH), " ".join(args)),
              rc == 2 and "usage:" in err, "rc=%d %s" % (rc, err))
    if FAILURES:
        print("%d check(s) failed: %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
