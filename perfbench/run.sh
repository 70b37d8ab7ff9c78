#!/usr/bin/env bash
# Build the release `satwatch` binary and the benchmark harness, then
# run the harness with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload logs --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); children write their outputs under it too.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p satwatch-cli --bin satwatch >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --satwatch "$target/release/satwatch" --work "$target/perfbench-work" "$@"
