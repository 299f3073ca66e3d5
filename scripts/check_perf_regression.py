#!/usr/bin/env python3
"""Gate CI on large throughput regressions against a committed snapshot.

Compares a freshly measured google-benchmark JSON against a committed
BENCH_*.json snapshot (default BENCH_des.json) and fails when any shared
benchmark's items_per_second drops by more than the allowed fraction
(default 20%).

Either file may hold single runs or repetitions.  When a benchmark has a
`median` aggregate row (google-benchmark's own, or the one
scripts/bench_perf.sh keeps), that row is its rate; other aggregates
(mean, stddev, cv, min) are ignored.  Without a median row, the median of
its per-repetition rows is used, which for a single run is that run.

Only the small grid-scale tier and the microbenchmarks run in CI — shared
runners are noisy, so the tolerance is deliberately loose; the committed
snapshot (regenerated via scripts/bench_perf.sh on a quiet machine) is the
curated trend record, this script only catches cliffs.

Usage:
  scripts/check_perf_regression.py FRESH.json [--baseline BENCH_des.json]
      [--max-regression 0.20] [--filter REGEX]

Exit codes: 0 = within tolerance, 1 = regression, 2 = usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path


def load_rates(path: Path, name_filter: re.Pattern | None) -> dict[str, float]:
    """Maps benchmark name -> items_per_second (median over repetitions)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    runs: dict[str, list[float]] = {}
    medians: dict[str, float] = {}
    for row in doc.get("benchmarks", []):
        name = row.get("run_name") or row.get("name", "")
        rate = row.get("items_per_second")
        if not name or rate is None:
            continue
        if name_filter is not None and not name_filter.search(name):
            continue
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                medians[name] = float(rate)
        else:
            runs.setdefault(name, []).append(float(rate))
    rates = {name: statistics.median(values) for name, values in runs.items()}
    rates.update(medians)
    return rates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=Path,
                        help="freshly measured benchmark JSON")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_des.json",
                        help="committed snapshot (default: repo BENCH_des.json)")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional items_per_second drop "
                             "(default 0.20)")
    parser.add_argument("--filter", type=str, default=None,
                        help="only gate benchmarks whose name matches this "
                             "regex (e.g. exclude the huge tier)")
    args = parser.parse_args()

    name_filter = re.compile(args.filter) if args.filter else None
    fresh = load_rates(args.fresh, name_filter)
    baseline = load_rates(args.baseline, name_filter)
    shared = sorted(fresh.keys() & baseline.keys())
    if not shared:
        print("error: no common benchmarks between fresh and baseline",
              file=sys.stderr)
        return 2

    failed = False
    for name in shared:
        old, new = baseline[name], fresh[name]
        if old <= 0.0:
            continue
        change = new / old - 1.0
        verdict = "ok"
        if change < -args.max_regression:
            verdict = "REGRESSION"
            failed = True
        print(f"{name:45s} {old:14.3e} -> {new:14.3e}  "
              f"{change:+7.1%}  {verdict}")

    missing = sorted(baseline.keys() - fresh.keys())
    for name in missing:
        print(f"{name:45s} missing from fresh run (not gated)")

    if failed:
        print(f"\nFAILED: items_per_second dropped more than "
              f"{args.max_regression:.0%} vs the committed snapshot.",
              file=sys.stderr)
        return 1
    print(f"\nOK: {len(shared)} benchmarks within "
          f"{args.max_regression:.0%} of the committed snapshot.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
