#!/usr/bin/env bash
# Records the committed benchmark trajectories so successive PRs can compare
# numbers:
#
#   * BENCH_table2.json — planner scalability (Table II), google-benchmark
#   * BENCH_sim.json    — event kernel + incremental world updates +
#                         whole missions (BM_Mission) + obs-overhead rows
#                         (BM_Fig5TrialObs), google-benchmark
#   * BENCH_fig5.json   — fig5 sweep metrics from the obs JSON exporter
#                         (schema wrsn-metrics-v1, bench/metrics_schema.json);
#                         the "deterministic" section is bit-identical at any
#                         WRSN_THREADS
#   * BENCH_service.json — mission-server throughput (coalescing + result
#                         cache on duplicate-heavy what-if workloads, schema
#                         wrsn-service-bench-v1)
#
# Usage:
#
#   bench/run_benchmarks.sh [--allow-debug] [--before <build-dir>] [build-dir]
#
# Default build-dir = build; outputs land at the repo root.  See the
# benchmark sections of EXPERIMENTS.md for how to read them.  Requires
# python3.
#
# --before <build-dir> also runs that build's table2_runtime and sim_kernel
# (typically the parent commit's tree, built Release with the same bench
# sources) and stores its document under a top-level "before" key of
# BENCH_table2.json / BENCH_sim.json, so a perf change commits its
# before/after rows side by side.
#
# Host speed drifts by tens of percent over minutes on a shared machine, so
# each google-benchmark binary runs in 3 rounds (alternating with the
# --before build's when given) and every committed row is that row's
# median-time round, counters included.
#
# Recordings from non-Release harness builds are refused: the gate reads
# CMAKE_BUILD_TYPE from the build dir's CMakeCache, because committed debug
# numbers poison every later before/after comparison.  --allow-debug
# overrides for local smoke runs only.  google-benchmark's own
# "library_build_type" describes how the SYSTEM benchmark library was built
# (a distro package may be a debug build); it is recorded, not gated on.
# Each google-benchmark JSON context also records the harness build type
# and the effective core count (this machine's cores may be shared, so the
# CPU count alone overstates the parallelism a run actually got).
set -euo pipefail

allow_debug=0
before_dir=""
build_dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --allow-debug) allow_debug=1 ;;
    --before) before_dir="$2"; shift ;;
    *) build_dir="$1" ;;
  esac
  shift
done

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${build_dir:-$repo_root/build}"

build_type_of() {
  sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$1/CMakeCache.txt" 2>/dev/null ||
    true
}

require_release() {
  local type
  type="$(build_type_of "$1")"
  if [[ "$type" != "Release" && "$allow_debug" != 1 ]]; then
    echo "error: $1 is not a Release build" \
      "(CMAKE_BUILD_TYPE='$type'); refusing to record" >&2
    echo "       (pass --allow-debug to override for local smoke runs)" >&2
    exit 1
  fi
}

require_release "$build_dir"
if [[ -n "$before_dir" ]]; then require_release "$before_dir"; fi

# Effective cores: a fixed CPU-bound loop timed alone and then once per
# reported CPU in parallel; cpu_count * t_alone / t_parallel.
effective_cores="$(python3 - <<'PY'
import multiprocessing as mp
import os
import time


def spin(n):
    x = 0
    for i in range(n):
        x += i
    return x


N = 3_000_000
start = time.perf_counter()
spin(N)
alone = time.perf_counter() - start
cpus = os.cpu_count() or 1
with mp.Pool(cpus) as pool:
    start = time.perf_counter()
    pool.map(spin, [N] * cpus)
    parallel = time.perf_counter() - start
print(f"{cpus * alone / parallel:.2f}")
PY
)"
echo "effective cores: $effective_cores"

require_bin() {
  if [[ ! -x "$1" ]]; then
    echo "error: $1 not built (cmake --build $build_dir)" >&2
    exit 1
  fi
}

# google-benchmark binary $1 of build dir $2 -> JSON file $3.
record_gbench() {
  local bin="$2/bench/$1"
  require_bin "$bin"
  "$bin" \
    --benchmark_out="$3" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true \
    --benchmark_context="harness_build_type=$(build_type_of "$2")" \
    --benchmark_context="effective_cores=$effective_cores" \
    --benchmark_context="rounds=3 (median-time round per row)"
}

run_one() {
  local out="$repo_root/$2"
  local tmp="$out.tmp"
  for round in 1 2 3; do
    record_gbench "$1" "$build_dir" "$tmp.after$round"
    if [[ -n "$before_dir" ]]; then
      record_gbench "$1" "$before_dir" "$tmp.before$round"
    fi
  done
  python3 - "$out" "$tmp" "$before_dir" <<'PY'
import json
import sys

out, tmp, with_before = sys.argv[1], sys.argv[2], sys.argv[3] != ""


def median_rounds(side):
    docs = []
    for r in (1, 2, 3):
        with open(f"{tmp}.{side}{r}") as f:
            docs.append(json.load(f))
    doc = docs[0]
    rows = []
    for i, row in enumerate(doc["benchmarks"]):
        runs = [d["benchmarks"][i] for d in docs]
        assert all(r["name"] == row["name"] for r in runs), row["name"]
        runs.sort(key=lambda r: r["real_time"])
        rows.append(runs[1])
    doc["benchmarks"] = rows
    return doc


doc = median_rounds("after")
if with_before:
    doc["before"] = median_rounds("before")
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
  rm -f "$tmp".after? "$tmp".before?
  echo "wrote $out"
}

validate() {
  python3 "$repo_root/bench/validate_metrics.py" "$1" \
    "$repo_root/bench/metrics_schema.json"
}

# Fig benches export their MetricRegistry when WRSN_METRICS_JSON is set.
run_metrics() {
  local bin="$build_dir/bench/$1"
  local out="$repo_root/$2"
  require_bin "$bin"
  WRSN_METRICS_JSON="$out" "$bin"
  echo "wrote $out"
  validate "$out"
}

# service_throughput writes its own JSON (its context's library_build_type
# is the harness's own NDEBUG setting).
run_service() {
  local bin="$build_dir/bench/service_throughput"
  local out="$repo_root/BENCH_service.json"
  require_bin "$bin"
  "$bin" "$out"
  echo "wrote $out"
  validate "$out"
}

run_one table2_runtime BENCH_table2.json
run_one sim_kernel BENCH_sim.json
run_metrics fig5_exhaustion BENCH_fig5.json
run_service
