#!/usr/bin/env python3
"""Unit tests for the golden check's compare and diff steps (ctest label:
unit).

Feeds scripts/goldens.py hand-made output, manifest and trace directories,
one fault at a time, and requires exactly one failure naming the file; then
diffs two hand-made output directories. Needs no build.

    python3 tests/goldens_test.py
"""

import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
import goldens  # noqa: E402

FAILURES = []


def write(directory, name, data):
    with open(os.path.join(directory, name), "w") as f:
        f.write(data)


def fixture(tmp):
    """A consistent set: two outputs with their manifest, two matching traces."""
    outputs, scenarios, traces = (os.path.join(tmp, d) for d in ("out", "gen", "traces"))
    for d in (outputs, scenarios, traces):
        os.makedirs(d)
    write(outputs, "sweep_smoke.json", '{"sweep": "smoke"}\n')
    write(outputs, "fig9_fast.csv", "x,y,ms\n0,0,0.5\n")
    manifest = os.path.join(tmp, "outputs.sha256")
    goldens.write_manifest(manifest, goldens.digest_dir(outputs))
    for d in (scenarios, traces):
        write(d, "oltp_burst.trace", "MSTKTRACE 1\n0 8 8 R 0\n")
        write(d, "backup_scan.trace", "MSTKTRACE 1\n0 0 64 R 0\n")
    return outputs, manifest, scenarios, traces


def expect(name, failures, culprit):
    ok = (len(failures) == 1 and culprit in failures[0]) if culprit else failures == []
    print("  [%s] %s%s" % ("ok" if ok else "FAIL", name, "" if ok else " -- %r" % failures))
    if not ok:
        FAILURES.append(name)


def main():
    print("golden compare tests")
    faults = [
        ("a consistent set passes", lambda out, gen, traces: None, None),
        ("a changed byte fails", lambda out, gen, traces:
         write(out, "sweep_smoke.json", '{"sweep": "smokE"}\n'), "sweep_smoke.json"),
        ("an output with no digest fails", lambda out, gen, traces:
         write(out, "sweep_new.json", "{}\n"), "sweep_new.json"),
        ("a stale manifest entry fails", lambda out, gen, traces:
         os.remove(os.path.join(out, "fig9_fast.csv")), "fig9_fast.csv"),
        ("a missing *.trace fails", lambda out, gen, traces:
         os.remove(os.path.join(traces, "backup_scan.trace")), "traces/backup_scan.trace"),
        ("an extra *.trace fails", lambda out, gen, traces:
         write(traces, "extra.trace", "MSTKTRACE 1\n"), "traces/extra.trace"),
        ("a changed *.trace fails", lambda out, gen, traces:
         write(traces, "oltp_burst.trace", "MSTKTRACE 1\n0 8 8 W 0\n"), "traces/oltp_burst.trace"),
    ]
    for name, fault, culprit in faults:
        with tempfile.TemporaryDirectory() as tmp:
            outputs, manifest, scenarios, traces = fixture(tmp)
            fault(outputs, scenarios, traces)
            expect(name, goldens.compare(outputs, manifest, scenarios, traces), culprit)

    with tempfile.TemporaryDirectory() as tmp:
        write(tmp, "smoke.json", '{"traceEvents": []}\n')
        write(tmp, "faults.json", '{"traceEvents": [\n')
        expect("a Chrome trace that is not JSON fails", goldens.check_chrome(tmp), "faults.json")

    diffs = [
        ("identical outputs diff to nothing", lambda out: None, []),
        ("a JSON diff names each moved key path with both values", lambda out:
         write(out, "sweep_smoke.json",
               '{"sweep": "smoke", "cells": [{"ms": 0.25, "n": 4}, {"ms": 2}], "new": 1}\n'),
         ["sweep_smoke.json: cells[0].ms: 0.5 -> 0.25",
          "sweep_smoke.json: cells[1].ms: 1 -> 2",
          "sweep_smoke.json: new: <absent> -> 1"]),
        ("a text diff names the first differing line", lambda out:
         write(out, "fig9_fast.csv", "x,y,ms\n0,0,0.5\n1,0,0.7\n1,1,0.9\n"),
         ["fig9_fast.csv: line 3: '1,0,0.6' -> '1,0,0.7'"]),
        ("a file on one side only is named", lambda out:
         os.remove(os.path.join(out, "fig9_fast.csv")),
         ["fig9_fast.csv: only in OLD"]),
    ]
    for name, change, want in diffs:
        with tempfile.TemporaryDirectory() as tmp:
            old, new = os.path.join(tmp, "OLD"), os.path.join(tmp, "NEW")
            for d in (old, new):
                os.makedirs(d)
                write(d, "sweep_smoke.json",
                      '{"sweep": "smoke", "cells": [{"ms": 0.5, "n": 4}, {"ms": 1}]}\n')
                write(d, "fig9_fast.csv", "x,y,ms\n0,0,0.5\n1,0,0.6\n1,1,0.9\n")
            change(new)
            got = [line.replace(tmp + os.sep, "") for line in goldens.diff_dirs(old, new)]
            with contextlib.redirect_stdout(io.StringIO()):
                status = goldens.main(["goldens.py", "diff", old, new])
            ok = got == want and status == (1 if want else 0)
            print("  [%s] %s%s" % ("ok" if ok else "FAIL", name, "" if ok else " -- %r" % got))
            if not ok:
                FAILURES.append(name)

    if FAILURES:
        print("%d check(s) failed: %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
