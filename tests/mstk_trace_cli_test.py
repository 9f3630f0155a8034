#!/usr/bin/env python3
"""Command-line tests for mstk_trace (ctest label: integration).

`convert` imports DiskSim and old mstk ASCII fixtures, `stats` and `replay`
read the result, bad input fails with a line-numbered error (exit 1), and
bad arguments print the usage (exit 2).

    python3 tests/mstk_trace_cli_test.py build/tools/mstk_trace
"""

import os
import subprocess
import sys
import tempfile

TOOL = os.path.abspath(sys.argv[1])
HEADER = "MSTKTRACE 1\n# timestamp_us lba blocks op client\n"
FAILURES = []


def run(*args):
    proc = subprocess.run([TOOL] + [str(a) for a in args], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check(name, cond, detail=""):
    print("  [%s] %s%s" % ("ok" if cond else "FAIL", name, "" if cond else " -- " + detail))
    if not cond:
        FAILURES.append(name)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return path


def read(path):
    with open(path) as f:
        return f.read()


def check_convert(name, src, args, want_records):
    """Converts `src`, expects exactly `want_records`, then stats and replays the result."""
    dst = src + ".trace"
    rc, _, err = run("convert", src, dst, *args)
    check(name + ": convert", rc == 0 and read(dst) == HEADER + want_records, err)
    rc, _, err = run("stats", dst)
    check(name + ": stats", rc == 0, err)
    rc, out, err = run("replay", dst, "mems", "fcfs")
    want = "requests=%d" % want_records.count("\n")
    check(name + ": replay", rc == 0 and want in out, out + err)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # DiskSim arrivals are milliseconds and flags a hex bitfield (bit 0 =
        # read); 4.0625 ms lands on a half microsecond and rounds up.
        disksim = write(os.path.join(tmp, "in.disksim"),
                        "# arrival_ms devno blkno blocks flags\n0.0 0 1000 8 1\n"
                        "1.5 1 2000 16 0\n2.25 0 3000 8 1a\n4.0625 0 64 4 1b\n")
        check_convert("disksim devno 0", disksim, [0],
                      "0 1000 8 R 0\n2250 3000 8 W 0\n4063 64 4 R 0\n")
        ascii = write(os.path.join(tmp, "in.ascii"), "# arrival_ms R|W lbn block_count\n"
                      "0 R 1000 8\n1.5 W 2000 16\n2.25 R 3000 8\n")
        check_convert("old ascii", ascii, [], "0 1000 8 R 0\n1500 2000 16 W 0\n2250 3000 8 R 0\n")

        gen = os.path.join(tmp, "gen.trace")
        rc, _, err = run("gen", "random", gen, 50)
        check("gen writes MSTKTRACE", rc == 0 and read(gen).startswith(HEADER), err)

        back = write(os.path.join(tmp, "back.disksim"), "0.002 0 8 4 1\n0.003 0 8 4 1\n"
                     "0.001 0 8 4 1\n")
        rc, _, err = run("convert", back, back + ".trace")
        check("unsorted convert fails at line 3, writes nothing",
              rc == 1 and "line 3: " in err and not os.path.exists(back + ".trace"), err)

        rc, _, err = run("stats", disksim)
        check("stats on DiskSim: parser's line-1 error", rc == 1 and "line 1: bad magic" in err,
              err)

        trace = ascii + ".trace"
        bad = os.path.join(tmp, "bad.trace")
        for args in (["gen", "random", bad, "-5"], ["gen", "random", bad, "0"],
                     ["gen", "random", bad, "12x"], ["gen", "random", bad, "10", "0"],
                     ["gen", "random", bad, "10", "abc"], ["gen", "random", bad, "10", "5", "-5"],
                     ["gen", "random", bad, "10", "5", "7x"],
                     ["fidelity", "random", "tpcc", "--count", "-3"],
                     ["fidelity", "random", "tpcc", "--count", "0"],
                     ["fidelity", "random", "tpcc", "--seed", "-5"],
                     ["fidelity", "random", "tpcc", "--seed", "1.5"],
                     ["replay", trace, "mems", "fcfs", "0"],
                     ["replay", trace, "mems", "fcfs", "abc"],
                     ["replay", trace, "mems", "fcfs", "-1"],
                     ["replay", trace, "mems", "fcfs", "nan"],
                     ["replay", trace, "mems", "fcfs", "1", "closed", "0"],
                     ["replay", trace, "mems", "fcfs", "1", "closed", "2x"],
                     ["convert", disksim, bad, "abc"], ["convert", disksim, bad, "-1"]):
            rc, _, err = run(*args)
            check(" ".join(os.path.basename(a) for a in args) + ": usage, exit 2",
                  rc == 2 and "usage:" in err, "rc=%d %s" % (rc, err))
        check("bad arguments write nothing", not os.path.exists(bad))
    if FAILURES:
        print("%d check(s) failed: %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
