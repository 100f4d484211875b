#!/usr/bin/env bash
# Runs every benchmark workload once untraced and once traced, from the
# repository root. Fails only when a run fails its correctness checks
# (non-zero exit); nothing is gated on wall-clock numbers. Each run's
# output goes to perf-results/<workload>-trace<0|1>.txt, its JSON line to
# the matching .json, and a table of the end-to-end metrics to
# $GITHUB_STEP_SUMMARY when that is set (stdout otherwise).
#
#   bash crates/bench/perf/ci.sh [seconds-per-run]
set -uo pipefail

seconds="${1:-20}"
out=perf-results
perf=(cargo run --release --offline --quiet --manifest-path crates/bench/perf/Cargo.toml --)
mkdir -p "$out"
cargo build --release --offline --manifest-path crates/bench/perf/Cargo.toml || exit 1

status=0
table="| workload | correct | sims_per_s | job_latency_p50_s | setup_s | peak_rss_mb |
|---|---|---|---|---|---|"
for workload in paper_attack resilience_faults defense_matrix service_jobs; do
  for trace in 0 1; do
    log="$out/$workload-trace$trace"
    if ! "${perf[@]}" --workload "$workload" --seconds "$seconds" --trace "$trace" >"$log.txt"; then
      echo "perf: $workload --trace $trace failed" >&2
      status=1
    fi
    tail -n 1 "$log.txt" >"$log.json"
  done
  row=$(awk -v w="$workload" '
    $1 == "sims_per_s" || $1 == "job_latency_p50_s" || $1 == "setup_s" || $1 == "peak_rss_mb" { v[$1] = $2 }
    /^\{/ { ok = ($0 ~ /"correct": true/) ? "yes" : "NO" }
    END { printf "| %s | %s | %s | %s | %s | %s |", w, ok, v["sims_per_s"], v["job_latency_p50_s"], v["setup_s"], v["peak_rss_mb"] }
  ' "$out/$workload-trace0.txt")
  table="$table
$row"
done

echo "$table" >>"${GITHUB_STEP_SUMMARY:-/dev/stdout}"
exit "$status"
