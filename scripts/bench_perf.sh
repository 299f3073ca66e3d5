#!/usr/bin/env bash
# Snapshot the google-benchmark perf benches into repo-root BENCH_<name>.json
# files, the PR-over-PR perf trajectory tracked in ROADMAP.md.
#
#   scripts/bench_perf.sh [build-dir] [bench ...]
#
# Defaults: build dir `build`, benches `des econ`.  Each bench_perf_<name>
# binary runs 5 repetitions with --benchmark_out, so the JSON is the
# benchmark library's own format (context + per-benchmark real/cpu time and
# items_per_second; the grid-scale DES rows also carry max_rss_mb /
# pending_peak counters).  The snapshot keeps two aggregate rows per
# benchmark: `median` (what scripts/check_perf_regression.py gates on) and
# `min` (the least-disturbed repetition: lowest times, highest rates).  The
# per-repetition rows and the mean/stddev/cv aggregates are dropped.  The
# context gains a `gridtrust` block describing this code's build (build
# type, compiler, flags, git rev, nproc) — the library's own
# `library_build_type` describes the installed libbenchmark, not gridtrust.
# Timings are machine-dependent — the JSONs are trend data; CI only gates
# large relative regressions.
#
# BENCH_OUT_DIR (default: the repo root) redirects the snapshots, e.g. to
# take a parent-commit snapshot without overwriting the committed one.
#
# The huge DES tier (~2M events per run, both kernels) stays manual:
#   GRIDTRUST_BENCH_HUGE=1 scripts/bench_perf.sh build des
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
shift || true
benches=("$@")
if [ "${#benches[@]}" -eq 0 ]; then
  benches=(des econ)
fi
out_dir="${BENCH_OUT_DIR:-.}"

for name in "${benches[@]}"; do
  bin="${build_dir}/bench/bench_perf_${name}"
  if [ ! -x "${bin}" ]; then
    echo "error: ${bin} not built (cmake --build ${build_dir} --target bench_perf_${name})" >&2
    exit 1
  fi
  out="${out_dir}/BENCH_${name}.json"
  echo "== bench_perf_${name} -> ${out}"
  "${bin}" --benchmark_out="${out}" --benchmark_out_format=json \
    --benchmark_min_time=0.05 --benchmark_repetitions=5
  python3 - "${out}" "${build_dir}" <<'EOF'
import json, os, subprocess, sys
from pathlib import Path

out, build_dir = Path(sys.argv[1]), Path(sys.argv[2])
doc = json.loads(out.read_text())
runs, medians = {}, {}
for row in doc["benchmarks"]:
    key = row.get("run_name", row["name"])
    if row.get("run_type") == "aggregate":
        if row.get("aggregate_name") == "median":
            medians[key] = row
    else:
        runs.setdefault(key, []).append(row)
kept = []
for key, median in medians.items():
    kept.append(median)
    reps = runs[key]
    best = dict(min(reps, key=lambda r: r["real_time"]))
    best["real_time"] = min(r["real_time"] for r in reps)
    best["cpu_time"] = min(r["cpu_time"] for r in reps)
    if "items_per_second" in best:
        best["items_per_second"] = max(r["items_per_second"] for r in reps)
    best.update(name=key + "_min", run_type="aggregate", aggregate_name="min",
                aggregate_unit="time", repetitions=len(reps))
    best.pop("repetition_index", None)
    kept.append(best)
doc["benchmarks"] = kept

cache = {}
cache_file = build_dir / "CMakeCache.txt"
if cache_file.exists():
    for line in cache_file.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            k, v = line.split("=", 1)
            cache[k.split(":", 1)[0]] = v
build_type = cache.get("CMAKE_BUILD_TYPE", "")
try:
    source = cache.get("CMAKE_HOME_DIRECTORY", ".")
    rev = subprocess.run(["git", "-C", source, "describe", "--always",
                          "--dirty", "--abbrev=7"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
except (OSError, subprocess.CalledProcessError):
    rev = "unknown"
doc["context"]["gridtrust"] = {
    "build_type": build_type,
    "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
    "cxx_flags": " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
    "git_rev": rev,
    "nproc": os.cpu_count(),
}
out.write_text(json.dumps(doc, indent=2) + "\n")
EOF
done
