#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — hold two BENCH_e2e.json files against
# the benchmark's own bounds. Exits non-zero if any row is worse or
# unresolved, or an exact count changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/frappe-e2e" compare "$@"
