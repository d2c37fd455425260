#!/usr/bin/env bash
# Workspace surface smoke test: builds and runs every example and --help's
# every experiment binary. CI runs this after the test suite so future PRs
# cannot silently break the runnable surface (`cargo test` alone does not
# execute examples).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== examples"
for ex in examples/*.rs; do
    name="$(basename "${ex%.rs}")"
    echo "-- example: ${name}"
    cargo run --quiet --release --example "${name}" >/dev/null
done

echo "== experiment binaries (--help)"
for bin in crates/bench/src/bin/*.rs; do
    name="$(basename "${bin%.rs}")"
    echo "-- binary: ${name} --help"
    cargo run --quiet --release -p rsched-bench --bin "${name}" -- --help >/dev/null
done

echo "== incremental workloads (fast mode, verifier-asserted end to end)"
RSCHED_BENCH_FAST=1 cargo run --quiet --release -p rsched-bench --bin incremental_algos >/dev/null

echo "smoke: all examples ran, all binaries answer --help, incremental fast run clean"
