#!/usr/bin/env bash
# Re-seeds bench_baselines/ for the benches the regression gate watches.
#
# Runs each gated bench FRAPPE_SEED_RUNS times (default 5) in quick mode
# and keeps, per benchmark, the WORST (largest) median observed. Quick-mode
# timings jitter hard on loaded machines; seeding from the worst run means
# scripts/bench_gate.sh only fires on regressions beyond the observed noise
# envelope, not on an unlucky scheduler slice.
#
# Usage: scripts/bench_seed_baselines.sh [group ...]
#        (default groups: table5_queries ablation_mmap synth_build)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${FRAPPE_SEED_RUNS:-5}"
GROUPS_TO_SEED=("$@")
if [[ ${#GROUPS_TO_SEED[@]} -eq 0 ]]; then
  GROUPS_TO_SEED=(table5_queries ablation_mmap synth_build)
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

for i in $(seq 1 "$RUNS"); do
  echo "==> seeding run $i/$RUNS"
  args=()
  for g in "${GROUPS_TO_SEED[@]}"; do args+=(--bench "$g"); done
  FRAPPE_BENCH_QUICK=1 FRAPPE_BENCH_DIR="$workdir/run$i" \
    cargo bench -q --offline -p frappe-bench "${args[@]}" >/dev/null
done

mkdir -p bench_baselines
for g in "${GROUPS_TO_SEED[@]}"; do
  # Merge: per benchmark name, the max median across runs. The baseline
  # keeps only the fields the gate reads (name + median_ns), one benchmark
  # per line in the harness's own JSON shape.
  awk -F'"' '
    /"name": / {
      name = $4
      if (match($0, /"median_ns": [0-9.]+/)) {
        median = substr($0, RSTART + 13, RLENGTH - 13) + 0
        if (!(name in best) || median > best[name]) best[name] = median
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
      }
    }
    END {
      printf "{\n  \"group\": \"%s\",\n  \"seeded\": \"worst of %s quick runs\",\n  \"benchmarks\": [\n", group, runs
      for (i = 1; i <= n; i++) {
        printf "    {\"name\": \"%s\", \"median_ns\": %.1f}%s\n", order[i], best[order[i]], (i < n) ? "," : ""
      }
      printf "  ]\n}\n"
    }
  ' group="$g" runs="$RUNS" "$workdir"/run*/BENCH_"$g".json > "bench_baselines/BENCH_$g.json"
  echo "==> bench_baselines/BENCH_$g.json"
done
echo "seed: OK (${GROUPS_TO_SEED[*]}, worst of $RUNS runs)"
