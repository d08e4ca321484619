#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Hermetic: the workspace has
# zero external crates, so everything runs with --offline and succeeds on
# a machine with an empty registry and no network.
#
# Usage:
#   scripts/verify.sh            # tier-1: release build + tests + bench compile
#   scripts/verify.sh --offline  # same (offline is already the default);
#                                # kept as an explicit CI entrypoint
#   scripts/verify.sh --quick    # debug build + tests, no bench compile —
#                                # the fast inner-loop check
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--offline)
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --offline) ;; # default; accepted for CI-invocation symmetry
    --quick) QUICK=1 ;;
    *)
      echo "usage: scripts/verify.sh [--offline] [--quick]" >&2
      exit 2
      ;;
  esac
done

if [[ "$QUICK" -eq 1 ]]; then
  echo "==> cargo build ${CARGO_FLAGS[*]}"
  cargo build "${CARGO_FLAGS[@]}"

  echo "==> cargo test -q --workspace ${CARGO_FLAGS[*]}"
  cargo test -q --workspace "${CARGO_FLAGS[@]}"

  echo "verify: OK (quick)"
  exit 0
fi

echo "==> cargo build --release ${CARGO_FLAGS[*]}"
cargo build --release "${CARGO_FLAGS[@]}"

echo "==> cargo test -q --workspace --release ${CARGO_FLAGS[*]}"
cargo test -q --workspace --release "${CARGO_FLAGS[@]}"

echo "==> cargo bench --no-run --workspace ${CARGO_FLAGS[*]}"
cargo bench --no-run --workspace "${CARGO_FLAGS[@]}"

# Thread-count invariance: the synth generator must produce identical
# bytes at any pool size (crates/synth/tests/determinism.rs compares
# snapshots internally; running the whole suite at both extremes also
# exercises every other synth test under each pool size).
for threads in 1 8; do
  echo "==> FRAPPE_SYNTH_THREADS=$threads cargo test --release -p frappe-synth ${CARGO_FLAGS[*]}"
  FRAPPE_SYNTH_THREADS=$threads cargo test -q --release -p frappe-synth "${CARGO_FLAGS[@]}"
done

# Observability gates: the Off-level overhead contract, then a profiled
# smoke query on the tiny spec (writes METRICS_obs_smoke.json next to the
# BENCH_*.json artifacts). --quick skips both (they exit above).
echo "==> cargo test --release -p frappe-bench --test obs_overhead ${CARGO_FLAGS[*]}"
cargo test -q --release -p frappe-bench --test obs_overhead "${CARGO_FLAGS[@]}"

echo "==> cargo run --release -p frappe-bench --bin obs_smoke ${CARGO_FLAGS[*]}"
cargo run -q --release -p frappe-bench --bin obs_smoke "${CARGO_FLAGS[@]}"

# Serving smoke: snapshot factory → mmap-served queries over the line
# protocol → /metrics scrape with populated query/pagecache counters and
# slow-query log (writes SERVE_*.txt scrape artifacts).
echo "==> scripts/serve_smoke.sh"
scripts/serve_smoke.sh

# Query-engine v2 gates: the Table 5 golden battery must stay
# byte-identical across the binder/planner rewrite, the aggregate and
# ORDER BY property suites run at a deeper case count than the default
# test pass, and the EXPLAIN battery must show a stats-seeded plan-cache
# hit end to end (writes EXPLAIN_battery.txt).
echo "==> cargo test --release --test golden_battery ${CARGO_FLAGS[*]}"
cargo test -q --release --test golden_battery "${CARGO_FLAGS[@]}"

echo "==> FRAPPE_PT_CASES=256 cargo test --release -p frappe-query ${CARGO_FLAGS[*]}"
FRAPPE_PT_CASES=256 cargo test -q --release -p frappe-query "${CARGO_FLAGS[@]}"

echo "==> scripts/query_v2_smoke.sh"
scripts/query_v2_smoke.sh

# End-to-end benchmark (benchmark/, its own workspace): the driver's unit
# tests, then the quick smoke (scale 0.02, 1 s windows) over the real
# socket, which exits non-zero if any run is not correct (a reply the
# answer oracle rejects, too many failed requests) or the server dies.
echo "==> cargo test --manifest-path benchmark/Cargo.toml ${CARGO_FLAGS[*]}"
cargo test -q --manifest-path benchmark/Cargo.toml "${CARGO_FLAGS[@]}"

echo "==> benchmark/run.sh --quick"
bash benchmark/run.sh --quick

echo "verify: OK"
