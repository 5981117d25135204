#!/usr/bin/env bash
# Build the benchmark from what git would hand to a fresh clone, so that
# it can never come to depend on an untracked file (the way crates/bench
# depends on the uncommitted vendor/criterion).
# Argument: a tree-ish, default HEAD; "$(git write-tree)" checks the index.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "${1:-HEAD}" | tar -x -C "$tmp"
CARGO_TARGET_DIR="$tmp/target" \
    cargo build --release --offline --manifest-path "$tmp/benchmark/Cargo.toml"
echo "fresh archive of ${1:-HEAD} builds"
