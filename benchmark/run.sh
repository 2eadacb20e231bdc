#!/usr/bin/env bash
# Builds the serving benchmark and runs it.
#
#   benchmark/run.sh [--workload W]... [--seed S] [--seconds N]
#                    [--trace 0|1] [--smoke] [--list]
#
# Can be called from anywhere: it moves to the repository root first, so
# that the root `.cargo/config.toml` (`target-cpu=native`) applies to the
# build. The build goes to `$CARGO_TARGET_DIR` when that is set (a
# relative one is taken from the repository root), else to the
# repository's ignored `target/benchmark`; results go to `benchmark/out/`.
# The last line of standard output is the one-line JSON result.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

# Cargo reports on standard error; standard output stays the benchmark's.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/servebench" --out benchmark/out "$@"
