#!/usr/bin/env bash
# Builds the `epfis` server binary and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline -p epfis-cli --bin epfis >&2
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/epfis-perfbench" --epfis "$CARGO_TARGET_DIR/release/epfis" "$@"
