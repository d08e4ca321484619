#!/usr/bin/env bash
# frappe-e2e: the paper's query mix over the real socket against a
# kernel-scale mapped snapshot. Builds frappe-serve (root workspace) and the
# driver (this directory's own workspace), then runs the driver.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--reps R] [--quick]
#
# With --trace (the driver contract) one workload runs once and the last
# line of stdout is the result object; without it every workload runs
# --reps untraced windows plus one traced pass into bench-results/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline -p frappe-serve --bin frappe-serve >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

server="${CARGO_TARGET_DIR:-$root/target}/release/frappe-serve"
driver="${CARGO_TARGET_DIR:-$here/target}/release/frappe-e2e"

# Every exit path: the driver removes its work directory and reaps its
# children itself; if it is killed first, this does it for it.
driver_pid=""
cleanup() {
    if [[ -n "$driver_pid" ]] && kill -0 "$driver_pid" 2>/dev/null; then
        pkill -TERM -P "$driver_pid" 2>/dev/null || true
        kill -TERM "$driver_pid" 2>/dev/null || true
        wait "$driver_pid" 2>/dev/null || true
    fi
    if [[ -n "$driver_pid" ]]; then
        rm -rf "$root/bench-results/work-$driver_pid"
    fi
}
trap cleanup EXIT INT TERM

"$driver" --server-bin "$server" "$@" &
driver_pid=$!
wait "$driver_pid"
