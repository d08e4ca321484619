#!/usr/bin/env bash
# Bench regression gate: compares the medians in freshly produced
# BENCH_*.json files against the checked-in baselines under
# bench_baselines/, and fails on any regression past the gate factor.
#
# Usage:
#   scripts/bench_gate.sh [--strict] [BENCH_DIR]
#
# BENCH_DIR defaults to $FRAPPE_BENCH_DIR, then target/frappe-bench.
# A baseline whose current BENCH_*.json is missing is a warning (the
# bench may not have run in this invocation); --strict turns that into
# a failure for jobs that are supposed to have produced every file.
#
# FRAPPE_GATE_FACTOR (default 1.5) is the allowed current/baseline median
# ratio. Baselines are seeded from FRAPPE_BENCH_QUICK=1 runs (worst of
# several, see bench_baselines/README.md), so compare like with like: run
# the benches in quick mode before gating.
#
# Quick mode times a single iteration, which makes sub-millisecond entries
# pure scheduler/cache noise (observed jitter up to 10x on ns-scale
# benches). FRAPPE_GATE_FLOOR_NS (default 1000000 = 1ms) sets the floor:
# entries whose baseline median is below it are printed but not gated.
set -euo pipefail
cd "$(dirname "$0")/.."

STRICT=0
BENCH_DIR="${FRAPPE_BENCH_DIR:-target/frappe-bench}"
for arg in "$@"; do
  case "$arg" in
    --strict) STRICT=1 ;;
    -*)
      echo "usage: scripts/bench_gate.sh [--strict] [BENCH_DIR]" >&2
      exit 2
      ;;
    *) BENCH_DIR="$arg" ;;
  esac
done

FACTOR="${FRAPPE_GATE_FACTOR:-1.5}"
FLOOR_NS="${FRAPPE_GATE_FLOOR_NS:-1000000}"
BASELINE_DIR=bench_baselines

if ! ls "$BASELINE_DIR"/BENCH_*.json >/dev/null 2>&1; then
  echo "bench_gate: no baselines under $BASELINE_DIR/ — nothing to gate" >&2
  exit 0
fi

# The JSON is our own bench harness's output: one benchmark object per
# line, each carrying "name" and "median_ns". awk-parse that shape rather
# than requiring a JSON tool the container may not have.
extract_medians() {
  awk -F'"' '
    /"name": / {
      name = $4
      if (match($0, /"median_ns": [0-9.]+/)) {
        median = substr($0, RSTART + 13, RLENGTH - 13)
        print name "\t" median
      }
    }
  ' "$1"
}

fail=0
warned=0
printf '%-14s %-34s %14s %14s %8s  %s\n' GROUP BENCHMARK BASELINE_NS CURRENT_NS RATIO VERDICT

for baseline in "$BASELINE_DIR"/BENCH_*.json; do
  file="$(basename "$baseline")"
  group="${file#BENCH_}"
  group="${group%.json}"
  current="$BENCH_DIR/$file"

  if [[ ! -f "$current" ]]; then
    echo "bench_gate: WARN $file missing from $BENCH_DIR (bench not run?)" >&2
    warned=1
    continue
  fi

  while IFS=$'\t' read -r name base_median; do
    cur_median="$(extract_medians "$current" | awk -F'\t' -v n="$name" '$1 == n {print $2; exit}')"
    if [[ -z "$cur_median" ]]; then
      echo "bench_gate: WARN $group/$name present in baseline but not in current run" >&2
      warned=1
      continue
    fi
    verdict="$(awk -v c="$cur_median" -v b="$base_median" -v f="$FACTOR" -v fl="$FLOOR_NS" 'BEGIN {
      ratio = (b > 0) ? c / b : 0
      state = "ok"
      if (b < fl) state = "noise-floor"
      else if (ratio > f) state = "REGRESSED"
      printf "%.2f %s", ratio, state
    }')"
    ratio="${verdict% *}"
    state="${verdict#* }"
    printf '%-14s %-34s %14.0f %14.0f %8s  %s\n' \
      "$group" "$name" "$base_median" "$cur_median" "$ratio" "$state"
    if [[ "$state" == "REGRESSED" ]]; then
      fail=1
    fi
  done < <(extract_medians "$baseline")

  # Benchmarks that exist now but have no baseline are informational only.
  while IFS=$'\t' read -r name _; do
    if ! extract_medians "$baseline" | awk -F'\t' -v n="$name" '$1 == n {found=1} END {exit !found}'; then
      printf '%-14s %-34s %14s %14s %8s  %s\n' "$group" "$name" '-' '-' '-' 'new (no baseline)'
    fi
  done < <(extract_medians "$current")
done

if [[ "$fail" -eq 1 ]]; then
  echo "bench_gate: FAIL — median regression beyond ${FACTOR}x (set FRAPPE_GATE_FACTOR to tune)" >&2
  exit 1
fi
if [[ "$STRICT" -eq 1 && "$warned" -eq 1 ]]; then
  echo "bench_gate: FAIL — warnings escalated by --strict" >&2
  exit 1
fi
echo "bench_gate: OK (factor ${FACTOR}x)"
