#!/usr/bin/env bash
# Builds `ged-served` and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload aids --seed 1 --seconds 32 --trace 0
#
# The last line of standard output is the JSON result; everything else
# (build output, progress) goes to standard error.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/ and perfbench/ are required)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ged-server --bin ged-served >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --served "$CARGO_TARGET_DIR/release/ged-served" \
    --run-dir "$CARGO_TARGET_DIR/perfbench-run" \
    "$@"
