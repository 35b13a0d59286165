#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it with the
# given arguments from the repository root.
#
#   benchmark/run.sh --seed 7                      every workload, untraced and traced
#   benchmark/run.sh --seed 100 --repeat-check     two passes of ten seeds, spreads and medians against the bounds
#   benchmark/run.sh --workload dns_churn --seed 7 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/earlybird-benchmark" "$@"
