#!/usr/bin/env bash
# Builds `cool` and the benchmark from source, then runs one workload (or
# `all` of them). Run from the root of a checkout:
#
#   bash coolbench/run.sh --workload hit-paper --seed 1 --seconds 10 --trace 0
#
# The last line of stdout is the JSON result; the table goes to stderr.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -f coolbench/Cargo.toml ]; then
    echo "coolbench: run from the root of a checkout of the cool repository" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin cool >&2
cargo build --release --offline --quiet --manifest-path coolbench/Cargo.toml >&2
exec "$target/release/coolbench" --cool "$target/release/cool" "$@"
