#!/usr/bin/env python3
"""Wall-clock throughput gate over bench/events_per_sec JSON documents.
(Simulated outputs are pinned exactly by scripts/goldens.py.)

Usage:
  check_bench_tolerance.py bench-write BASELINE BENCH_JSON
      Record/refresh the events/sec throughput baseline (bench/events_per_sec
      --json output) under the baseline's "bench" key.
  check_bench_tolerance.py bench-check BASELINE BENCH_JSON [--floor 0.45]
      [--win-notice 0.15]
      Events/sec depends on the machine, so the gate is a one-sided ratio
      floor, not a tight band. Exit 1 if any config's measured/baseline
      events_per_sec falls below the floor (a real throughput regression
      survives machine noise); a win beyond --win-notice just prints a
      reminder to refresh the baseline so the floor keeps teeth.
"""

import argparse
import json
import sys


def load_bench(path):
    """{config_name: events_per_sec} from an events_per_sec --json document."""
    with open(path) as f:
        doc = json.load(f)
    return {name: c["events_per_sec"] for name, c in doc["configs"].items()}


def bench_write(baseline_path, bench_path):
    baseline = {"bench": load_bench(bench_path)}
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"bench baseline written: {baseline_path} ({len(baseline['bench'])} configs)")
    return 0


def bench_check(baseline_path, bench_path, floor, win_notice):
    with open(baseline_path) as f:
        baseline = json.load(f).get("bench")
    if not baseline:
        print(f"error: no 'bench' section in {baseline_path} (run bench-write)")
        return 1
    measured = load_bench(bench_path)

    failures = []
    wins = []
    for config, base in sorted(baseline.items()):
        now = measured.get(config)
        if now is None:
            failures.append(f"{config}: config missing from measurement")
            continue
        ratio = now / base if base > 0 else float("inf")
        status = "ok"
        if ratio < floor:
            status = "FAIL"
            failures.append(
                f"{config}: {now:,.0f} ev/s is {ratio:.2f}x of baseline "
                f"{base:,.0f} (floor {floor:.2f}x)"
            )
        elif ratio > 1.0 + win_notice:
            status = "win"
            wins.append(config)
        print(f"  {config}: {base:,.0f} -> {now:,.0f} ev/s ({ratio:.2f}x) {status}")

    if wins:
        print(
            f"notice: {', '.join(wins)} beat the baseline by >{win_notice:.0%} — "
            "refresh baseline (scripts/refresh_bench_baseline.sh) so the floor keeps teeth"
        )
    if failures:
        print(f"THROUGHPUT REGRESSION: {len(failures)} config(s) below the floor")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"throughput ok: {len(baseline)} configs at or above {floor:.2f}x baseline")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["bench-write", "bench-check"])
    parser.add_argument("baseline")
    parser.add_argument("bench", help="an events_per_sec --json document")
    parser.add_argument("--floor", type=float, default=0.45)
    parser.add_argument("--win-notice", type=float, default=0.15)
    args = parser.parse_args()

    if args.mode == "bench-write":
        return bench_write(args.baseline, args.bench)
    return bench_check(args.baseline, args.bench, args.floor, args.win_notice)


if __name__ == "__main__":
    sys.exit(main())
