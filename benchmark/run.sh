#!/usr/bin/env bash
# Build once, run the five workloads with tracing off, then the five
# traced runs, and print one merged table per kind.
# Arguments are passed on: --seed <u64>, --seconds <s>.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/kamsta-benchmark" all "$@"
