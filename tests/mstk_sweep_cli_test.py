#!/usr/bin/env python3
"""Command-line tests for mstk_sweep and the benches' flags (ctest label:
integration): a malformed or out-of-range number prints the usage and exits
2, in mstk_sweep and in BenchOptions::Parse (run through the benches that
read each flag); a bench given a flag it does not read exits 2 and writes
nothing; `--jobs 0` still means all cores; and trace_replay rejects a trace
whose client ids would overflow when multiplied.

    python3 tests/mstk_sweep_cli_test.py build/tools/mstk_sweep build/bench
"""

import os
import subprocess
import sys
import tempfile

SWEEP, BENCH_DIR = (os.path.abspath(p) for p in sys.argv[1:3])
FAILURES = []


def run(*args):
    proc = subprocess.run([str(a) for a in args], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check(name, cond, detail=""):
    print("  [%s] %s%s" % ("ok" if cond else "FAIL", name, "" if cond else " -- " + detail))
    if not cond:
        FAILURES.append(name)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "smoke.json")
        rc, _, err = run(SWEEP, "smoke", "--trials", 1, "--jobs", 0, "--seed", 0, "--json", out)
        check("--jobs 0 --seed 0 runs", rc == 0 and os.path.exists(out), err)
        bad = os.path.join(tmp, "bad.json")
        # Among them, values past TrialRunner::kMaxTrials and kMaxJobs: a
        # trial count the run cannot allocate, or more threads than any run
        # needs.
        for args in (["--trials", "2x"], ["--trials", "-1"], ["--trials", "0"],
                     ["--trials", ""], ["--trials", "9223372036854775807"],
                     ["--trials", "100001"], ["--jobs", "-1"], ["--jobs", "4.5"],
                     ["--jobs", "1025"], ["--jobs", "99999999999"], ["--seed", "-5"],
                     ["--seed", "1e3"], ["--seed", "18446744073709551615"], ["--seed"],
                     ["--selfcheck"],
                     # A number starts with a digit: strtoll alone would
                     # take a sign and leading whitespace.
                     ["--trials", "+2"], ["--trials", " 2"]):
            rc, _, err = run(SWEEP, "smoke", "--json", bad, *args)
            check("mstk_sweep %s: usage, exit 2" % " ".join(args),
                  rc == 2 and "usage:" in err, "rc=%d %s" % (rc, err))
        check("bad arguments write nothing", not os.path.exists(bad))

        for bench, args in (
                ("fig6_mems_scheduling", ["--trials", "2x"]),
                ("fig6_mems_scheduling", ["--trials", "0"]),
                ("fig6_mems_scheduling", ["--fast", "--trials", "9223372036854775807"]),
                ("fig6_mems_scheduling", ["--trials", "100001"]),
                ("fig6_mems_scheduling", ["--fast", "--jobs", "1025"]),
                ("fig6_mems_scheduling", ["--jobs", "-2"]),
                ("fig6_mems_scheduling", ["--seed", "-5"]),
                ("fault_tolerance", ["--fault-rate", "1.5"]),
                ("fault_tolerance", ["--fault-rate", "-0.1"]),
                ("fault_tolerance", ["--fault-rate", "nan"]),
                ("fault_tolerance", ["--fast", "--fault-rate", "+0.5"]),
                ("fault_tolerance", ["--fast", "--fault-rate", "0x1p-4"]),
                ("fault_tolerance", ["--fast", "--fault-rate", " 0.5"]),
                ("fig6_mems_scheduling", ["--fast", "--seed", "+1"]),
                ("trace_replay", ["--clients", "0"]),
                ("trace_replay", ["--clients", "3x"]),
                # Past BenchOptions::kMaxClients: the multiplied trace
                # would not fit in memory.
                ("trace_replay", ["--clients", "1025"]),
                ("trace_replay", ["--fast", "--clients", "2147483647"]),
                # Flags these benches do not read.
                ("fig5_disk_scheduling", ["--json", bad]),
                ("fig6_mems_scheduling", ["--layouts", "all"])):
            rc, stdout, err = run(os.path.join(BENCH_DIR, bench), *args)
            check("%s %s: usage, exit 2" % (bench, " ".join(args)),
                  rc == 2 and "usage:" in err and stdout == "", "rc=%d %s" % (rc, err))
        check("rejected bench flags write nothing", not os.path.exists(bad))

        # A valid trace whose client 1,500,000,000 cannot be doubled in int32.
        trace = os.path.join(tmp, "big_client.trace")
        with open(trace, "w") as f:
            f.write("MSTKTRACE 1\n0 100 8 R 1500000000\n")
        rc, _, err = run(os.path.join(BENCH_DIR, "trace_replay"), "--trace-file", trace,
                         "--clients", "2")
        check("trace_replay --clients 2 on client 1.5e9: error, exit 1",
              rc == 1 and err.startswith("error: ") and "overflow" in err,
              "rc=%d %s" % (rc, err))
    rc, _, err = run(os.path.join(BENCH_DIR, "fig5_disk_scheduling"), "--seed", "1")
    check("fig5 usage lists only --csv and --fast",
          rc == 2 and err.endswith("fig5_disk_scheduling [--csv] [--fast]\n"), repr(err))
    if FAILURES:
        print("%d check(s) failed: %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
