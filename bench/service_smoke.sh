#!/usr/bin/env bash
# CI smoke for the mission server (src/svc/): at WRSN_THREADS=1/2/8, start
# `wrsn_cli --serve`, fire concurrent duplicate-heavy clients (each one
# cross-checks the served result against a direct local run via the CLI's
# built-in --client verification), then SIGTERM the server and demand a
# clean drain.  Finally the per-seed digests are compared ACROSS thread
# counts: the service must be bit-identical however the pool is sized.
#
#   bench/service_smoke.sh [build-dir]
#
# Intended to run under ASan/UBSan builds too (see .github/workflows/ci.yml);
# the script only needs wrsn_cli.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
cli="$build_dir/examples/wrsn_cli"
if [[ ! -x "$cli" ]]; then
  echo "error: $cli not built (cmake --build $build_dir --target wrsn_cli)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Duplicate-heavy workload: 12 concurrent clients over only 4 distinct
# seeds, so most requests coalesce or hit the cache while in flight.
seeds=(11 11 12 11 13 12 14 11 12 13 14 11)

for threads in 1 2 8; do
  sock="$workdir/svc_$threads.sock"
  log="$workdir/serve_$threads.log"
  WRSN_THREADS=$threads "$cli" --serve "$sock" --cache 64 --queue 64 \
    > "$log" 2>&1 &
  server=$!

  for _ in $(seq 100); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  if [[ ! -S "$sock" ]]; then
    echo "FAIL: server (WRSN_THREADS=$threads) never bound $sock" >&2
    cat "$log" >&2
    exit 1
  fi

  # All clients at once; odd-numbered ones use the binary protocol.
  pids=()
  for i in "${!seeds[@]}"; do
    proto=()
    if (( i % 2 == 1 )); then proto=(--binary); fi
    "$cli" --client "$sock" --seed "${seeds[$i]}" "${proto[@]}" \
      > "$workdir/client_${threads}_${i}.log" 2>&1 &
    pids+=($!)
  done
  for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
      echo "FAIL: client $i (WRSN_THREADS=$threads) failed:" >&2
      cat "$workdir/client_${threads}_${i}.log" >&2
      exit 1
    fi
    # --client verifies service vs direct itself; demand the confirmation.
    if ! grep -q '^verified: service matches direct execution' \
        "$workdir/client_${threads}_${i}.log"; then
      echo "FAIL: client $i (WRSN_THREADS=$threads) missing verification:" >&2
      cat "$workdir/client_${threads}_${i}.log" >&2
      exit 1
    fi
  done

  kill -TERM "$server"
  if ! wait "$server"; then
    echo "FAIL: server (WRSN_THREADS=$threads) exited non-zero:" >&2
    cat "$log" >&2
    exit 1
  fi
  if ! grep -q 'drained cleanly' "$log"; then
    echo "FAIL: server (WRSN_THREADS=$threads) did not drain cleanly:" >&2
    cat "$log" >&2
    exit 1
  fi

  # Record seed -> digest for the cross-thread-count comparison.
  for i in "${!seeds[@]}"; do
    digest="$(sed -n \
      's/^verified: service matches direct execution (digest \([0-9]*\)).*/\1/p' \
      "$workdir/client_${threads}_${i}.log")"
    echo "${seeds[$i]} $digest" >> "$workdir/digests_$threads.txt"
  done
  sort -u "$workdir/digests_$threads.txt" > "$workdir/digests_$threads.uniq"
  echo "WRSN_THREADS=$threads: ${#seeds[@]} clients verified, clean drain"
done

if ! cmp -s "$workdir/digests_1.uniq" "$workdir/digests_2.uniq" ||
   ! cmp -s "$workdir/digests_1.uniq" "$workdir/digests_8.uniq"; then
  echo "FAIL: digests differ across WRSN_THREADS values:" >&2
  for t in 1 2 8; do
    echo "--- WRSN_THREADS=$t" >&2
    cat "$workdir/digests_$t.uniq" >&2
  done
  exit 1
fi

# One mode grammar: a local `--repro` replay rejects a bad mode with the
# ConfigError text the service and scenario_fuzzer give.
expected="error: config key 'mode': expected attack|benign, got 'foo'"
if got="$("$cli" --repro 'mode=foo;seed=1' 2>&1)" || [[ "$got" != "$expected" ]]; then
  echo "FAIL: --repro 'mode=foo;seed=1' printed: $got" >&2
  exit 1
fi

echo "service smoke OK: digests bit-identical at WRSN_THREADS=1/2/8"
