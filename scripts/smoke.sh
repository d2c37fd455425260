#!/usr/bin/env bash
# Workspace surface smoke test: builds and runs every example, then the
# incremental workloads in fast mode, so a change cannot silently break the
# runnable surface (`cargo test` alone does not execute examples). That
# every experiment binary answers --help is checked by
# crates/bench/tests/smoke.rs in `cargo test --workspace`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== examples"
for ex in examples/*.rs; do
    name="$(basename "${ex%.rs}")"
    echo "-- example: ${name}"
    cargo run --quiet --release --example "${name}" >/dev/null
done

echo "== incremental workloads (fast mode, verifier-asserted end to end)"
RSCHED_BENCH_FAST=1 cargo run --quiet --release -p rsched-bench --bin incremental_algos >/dev/null

echo "smoke: all examples ran, incremental fast run clean"
