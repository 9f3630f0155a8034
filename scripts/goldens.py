#!/usr/bin/env python3
"""Golden check: every deterministic output of mstk, pinned exactly.

    scripts/goldens.py check BUILD_DIR      # the `goldens` ctest
    scripts/goldens.py refresh BUILD_DIR

The outputs are listed in produce(); tests/golden/outputs.sha256 holds one
sha256 per output, and make_scenarios --out must equal traces/ file by file.
Every example runs too; each one's stdout is pinned except trace_pipeline's,
which prints the path of its temporary file. Every bench in BUILD_DIR/bench
runs at --fast where it reads it, its stdout pinned, except the wall-clock
ones named in WALL_CLOCK_BENCHES.
`refresh` rewrites the manifest from a --jobs 1 untraced run, and traces/
from make_scenarios; run it only in a change that moves outputs. `check`
runs at --jobs 4 with --trace on smoke and faults (those Chrome traces must
parse), so the exact comparison also proves that no result depends on the
job count or on tracing. Outputs stay in BUILD_DIR/goldens/; `diff -r` that
directory between a parent build and a change build to see what moved.
"""

import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "outputs.sha256")
TRACES = os.path.join(ROOT, "traces")
# Examples whose stdout is pinned; trace_pipeline runs unpinned.
EXAMPLES = ("quickstart", "oltp_scheduling", "media_server_layout", "mobile_power",
            "failure_injection", "storage_stack", "device_explorer")
# Benches that print wall-clock time. Every other bench's stdout is pinned,
# so a new bench is checked unless it is named here.
WALL_CLOCK_BENCHES = ("events_per_sec", "microbench_model")


def run(cmd, stdout_path=None):
    """Runs `cmd` from the repo root, its stderr passed through; returns its
    stdout, or writes it to `stdout_path`."""
    stdout = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    if stdout_path:
        with open(stdout_path, "w") as f:
            f.write(stdout)
    return stdout


def fast_flag(bench):
    """["--fast"] if `bench` reads --fast, else []. A bench given a flag it
    does not read prints its usage line, which lists the flags it does."""
    usage = subprocess.run([bench, "--usage"], cwd=ROOT, capture_output=True, text=True).stderr
    return ["--fast"] if "[--fast]" in usage else []


def produce(build, out, refresh):
    """Writes every pinned output to out/outputs: each `mstk_sweep --list`
    matrix, fig11 and fig9 at --fast, every bench's and example's stdout,
    and mstk_trace stats, replay and fidelity on traces/. A check also writes
    Chrome traces to out/chrome and the scenario zoo to out/traces; a refresh
    regenerates traces/ itself, before the trace tools read it."""
    shutil.rmtree(out, ignore_errors=True)
    outputs, chrome = os.path.join(out, "outputs"), os.path.join(out, "chrome")
    os.makedirs(outputs)
    os.makedirs(chrome)
    tool = lambda rel: os.path.join(os.path.abspath(build), rel)
    jobs = "1" if refresh else "4"

    sweep = tool("tools/mstk_sweep")
    for name in run([sweep, "--list"]).split():
        cmd = [sweep, name, "--trials", "4", "--seed", "1", "--jobs", jobs,
               "--json", os.path.join(outputs, "sweep_%s.json" % name)]
        if not refresh and name in ("smoke", "faults"):
            cmd += ["--trace", os.path.join(chrome, "%s.json" % name)]
        run(cmd)
    run([tool("bench/fig11_layout_comparison"), "--fast", "--trials", "2", "--seed", "1",
         "--jobs", jobs, "--json", os.path.join(outputs, "fig11_fast.json")])
    run([tool("bench/fig9_subregion_map"), "--fast", "--csv"],
        os.path.join(outputs, "fig9_fast.csv"))
    for bench in sorted(glob.glob(tool("bench/*"))):
        name = os.path.basename(bench)
        if name not in WALL_CLOCK_BENCHES:
            run([bench] + fast_flag(bench), os.path.join(outputs, "bench_%s.txt" % name))
    for name in EXAMPLES:
        run([tool("examples/" + name)], os.path.join(outputs, "example_%s.txt" % name))
    run([tool("examples/trace_pipeline")])
    if refresh:
        for path in glob.glob(os.path.join(TRACES, "*.trace")):
            os.remove(path)
    run([tool("tools/make_scenarios"), "--out", TRACES if refresh else os.path.join(out, "traces")])

    # Relative trace paths: fidelity records its stream names in the JSON.
    trace_tool = tool("tools/mstk_trace")
    for path in sorted(glob.glob("*.trace", root_dir=TRACES)):
        rel, name = os.path.join("traces", path), path[:-len(".trace")]
        run([trace_tool, "stats", rel], os.path.join(outputs, "stats_%s.txt" % name))
        for device in ("mems", "disk"):
            for sched in ("fcfs", "sptf", "clook"):
                run([trace_tool, "replay", rel, device, sched],
                    os.path.join(outputs, "replay_%s_%s_%s.txt" % (name, device, sched)))
    run([trace_tool, "fidelity", "traces/oltp_burst.trace", "tpcc", "--require-differs",
         "--json", os.path.join(outputs, "fidelity_oltp_burst_tpcc.json")])


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digest_dir(directory):
    return {name: sha256(os.path.join(directory, name)) for name in os.listdir(directory)}


def read_manifest(path):
    with open(path) as f:
        return {name: digest for digest, name in (line.split() for line in f if line.strip())}


def write_manifest(path, digests):
    with open(path, "w") as f:
        f.writelines("%s  %s\n" % (digests[name], name) for name in sorted(digests))


def compare(outputs, manifest, scenarios, traces):
    """One failure line per file: outputs against the manifest's digests, and
    the regenerated scenarios against the committed traces."""
    failures = []
    got, pinned = digest_dir(outputs), read_manifest(manifest)
    for name in sorted(got.keys() | pinned.keys()):
        if name not in pinned:
            failures.append("%s: output has no digest in the manifest" % name)
        elif name not in got:
            failures.append("%s: stale manifest entry, no such output" % name)
        elif got[name] != pinned[name]:
            failures.append("%s: output moved (sha256 %s, pinned %s)"
                            % (name, got[name][:12], pinned[name][:12]))
    generated = set(glob.glob("*.trace", root_dir=scenarios))
    committed = set(glob.glob("*.trace", root_dir=traces))
    for name in sorted(generated | committed):
        if name not in committed:
            failures.append("traces/%s: make_scenarios writes it but it is not committed" % name)
        elif name not in generated:
            failures.append("traces/%s: committed but make_scenarios does not write it" % name)
        elif sha256(os.path.join(scenarios, name)) != sha256(os.path.join(traces, name)):
            failures.append("traces/%s: differs from make_scenarios output" % name)
    return failures


def check_chrome(chrome):
    failures = []
    for name in sorted(os.listdir(chrome)):
        try:
            with open(os.path.join(chrome, name)) as f:
                json.load(f)
        except ValueError as e:
            failures.append("chrome/%s: not JSON (%s)" % (name, e))
    return failures


def main(argv):
    if len(argv) != 3 or argv[1] not in ("check", "refresh"):
        sys.stderr.write("usage: %s check|refresh BUILD_DIR\n" % argv[0])
        return 2
    refresh, out = argv[1] == "refresh", os.path.join(argv[2], "goldens")
    try:
        produce(argv[2], out, refresh)
    except subprocess.CalledProcessError as e:
        print("GOLDEN FAILURE: %s" % e)
        return 1
    if refresh:
        write_manifest(MANIFEST, digest_dir(os.path.join(out, "outputs")))
        print("wrote tests/golden/outputs.sha256 and traces/; name what moved in CHANGES.md")
        return 0
    failures = check_chrome(os.path.join(out, "chrome")) + compare(
        os.path.join(out, "outputs"), MANIFEST, os.path.join(out, "traces"), TRACES)
    for line in failures:
        print("GOLDEN FAILURE: " + line)
    if failures:
        print("Outputs are in %s. If the change means to move them, run "
              "scripts/goldens.py refresh and name them in CHANGES.md." % out)
        return 1
    print("goldens ok: %d outputs and traces/ match" % len(read_manifest(MANIFEST)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
