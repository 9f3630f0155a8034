#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark: a base checkout against this one.

    scripts/perf_ab.py BASE_DIR [--pairs 10] [--seconds 5] [--first-seed 2]
                       [--workload NAME ...] [--report perf_ab.json]

For every workload in this checkout's BENCHMARK.json, or only those named
by --workload (in the order given), the script runs the benchmark command
in BASE_DIR (the base) and in this checkout (the head) in alternating
pairs: pair i runs at seed first-seed + i, and the side that runs first
flips from pair to pair. Seed 1 is the pinned development seed, so pairs
start at seed 2 or later. Each tree builds its own benchmark binary on
first use.

For each workload and end-to-end metric it prints each side's median and
quartiles, the head/base ratio of the medians, the head's wins (the
direction comes from the metric's `better`; equal values count for neither
side), whether the head median is within the metric's `bound`, whether the
base runs spread wider than that bound (then the comparison is unresolved),
and whether the medians differ by more than the base's quartile spread. It
then lists, per pair, whether both sides printed the same digest and how
many operations failed.

It only reports. The exit status is 1 when a run's output check failed
(digest, exactness or failed requests: the benchmark exited 1), else 2
when a run could not be built or printed no result, and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_side(tree, command, workload, seed, seconds):
    """Runs the benchmark once in `tree`; returns its parsed result."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {
        "exit": proc.returncode,
        "digest": digest,
        "correct": bool(result and result["correct"]),
        "attempted": result["attempted"] if result else 0,
        "failed": result["failed"] if result else 0,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()} if result else {},
    }


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric, pairs):
    """Compares one end-to-end metric over the pairs of one workload."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    base = [p["base"]["metrics"][name] for p in pairs]
    head = [p["head"]["metrics"][name] for p in pairs]
    (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(base), quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
    losses = sum(1 for b, h in zip(base, head) if (h < b if higher else h > b))
    limit = bmed * (1 - bound) if higher else bmed * (1 + bound)
    return {
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "head": {"q1": hq1, "median": hmed, "q3": hq3},
        "ratio": hmed / bmed if bmed else None,
        "wins": wins,
        "losses": losses,
        "within_bound": hmed >= limit if higher else hmed <= limit,
        "base_spread": (bq3 - bq1) / bmed if bmed else 0.0,
        "unresolved": bmed != 0 and (bq3 - bq1) / bmed > bound,
        "beyond_base_iqr": abs(hmed - bmed) > bq3 - bq1,
    }


def num(value):
    """A metric value for the table: whole units from 1000 up."""
    return "{:,.0f}".format(value) if abs(value) >= 1000 else "%.5g" % value


def print_workload(workload, metrics, summary, pairs):
    print("\n== %s (%d pairs)" % (workload, len(pairs)))
    print("%-22s %-32s %-32s %6s %6s %6s %7s %6s" % (
        "metric", "base median [q1, q3]", "head median [q1, q3]", "ratio", "wins",
        "bound", "spread", "clear"))
    for metric in metrics:
        s = summary[metric["name"]]
        side = lambda q: "%s [%s, %s]" % (num(q["median"]), num(q["q1"]), num(q["q3"]))
        ratio = "%.3f" % s["ratio"] if s["ratio"] is not None else "-"
        print("%-22s %-32s %-32s %6s %6s %6s %7s %6s" % (
            metric["name"], side(s["base"]), side(s["head"]), ratio,
            "%d/%d" % (s["wins"], len(pairs)), "ok" if s["within_bound"] else "OUT",
            "%.1f%%" % (100 * s["base_spread"]) + ("!" if s["unresolved"] else ""),
            "yes" if s["beyond_base_iqr"] else "no"))
    for p in pairs:
        print("  seed %-5d first %-4s digests %-9s failed base %d head %d%s" % (
            p["seed"], p["first"], "equal" if p["digests_equal"] else "DIFFER",
            p["base"]["failed"], p["head"]["failed"],
            "" if p["base"]["correct"] and p["head"]["correct"] else "  OUTPUT CHECK FAILED"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=2)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="A/B only this workload (repeatable; default: every one)")
    parser.add_argument("--report", default="perf_ab.json")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.first_seed < 2:
        parser.error("--pairs and --seconds must be >= 1, --first-seed >= 2")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in args.workload or [] if w not in known]
    if unknown:
        parser.error("unknown workload %s (BENCHMARK.json has: %s)"
                     % (", ".join(unknown), ", ".join(known)))
    workloads = list(dict.fromkeys(args.workload)) if args.workload else known
    trees = {"base": os.path.abspath(args.base), "head": ROOT}
    report = {"base": trees["base"], "head": trees["head"], "pairs": args.pairs,
              "seconds": args.seconds, "first_seed": args.first_seed, "workloads": {}}
    check_failed = run_failed = False
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], bench["command"], workload, seed,
                                      args.seconds)
                if pair[side]["exit"] == 1 or (pair[side]["exit"] == 0
                                               and not pair[side]["correct"]):
                    check_failed = True
                elif pair[side]["exit"] != 0 or not pair[side]["metrics"]:
                    run_failed = True
            pair["digests_equal"] = (pair["base"]["digest"] is not None
                                     and pair["base"]["digest"] == pair["head"]["digest"])
            pairs.append(pair)
        complete = [p for p in pairs if p["base"]["metrics"] and p["head"]["metrics"]]
        summary = {m["name"]: summarize(m, complete) for m in bench["end_to_end"]} \
            if complete else {}
        report["workloads"][workload] = {"pairs": pairs, "metrics": summary}
        if complete:
            print_workload(workload, bench["end_to_end"], summary, complete)
        else:
            print("\n== %s: no run printed a result" % workload)
        sys.stdout.flush()
    status = 1 if check_failed else 2 if run_failed else 0
    report["status"] = status
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("\nreport: %s" % args.report)
    return status


if __name__ == "__main__":
    sys.exit(main())
