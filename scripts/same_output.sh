#!/usr/bin/env bash
# Byte-identity of the deterministic tables against a parent commit — the
# check a simplicity PR owes (ROADMAP item 4: "goldens byte-identical").
#
#   scripts/same_output.sh [parent=HEAD~1]
#
# Builds `rsched-bench` (obs off) of <parent> — from the same `git archive`
# export under target/bench_pairs/ that scripts/bench_pairs.sh uses, so
# nothing is registered in .git — and of the working tree, runs the five
# seeded, single-threaded outputs on both and diffs them:
#
#   table1 --quick            workloads --quick
#   theorem1_sweep --quick    theorem2_sweep --quick
#   RSCHED_BENCH_FAST=1 incremental_algos, sequential tables only (the
#     concurrent grid between them prints wall-clock ratios and is cut)
#
# Prints one line per output and exits 1 if any differs.
#
# Offline: plain git + cargo + diff. Edits nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

sha="$(git rev-parse --verify "${1:-HEAD~1}^{commit}")"
root="$(pwd)"
work="${root}/target/bench_pairs"
parent="${work}/src-${sha}"
if [ ! -d "${parent}" ]; then
    mkdir -p "${parent}"
    git archive "${sha}" | tar -x -C "${parent}"
fi
echo "== building rsched-bench of parent ${sha:0:7} and of the working tree" >&2
CARGO_TARGET_DIR="${work}/target-ws-${sha}" cargo build --release --offline --quiet \
    -p rsched-bench --manifest-path "${parent}/Cargo.toml"
cargo build --release --offline --quiet -p rsched-bench

# The five outputs of one build, each into <dir>/<name>.txt.
outputs() { # <bin dir> <out dir>
    mkdir -p "$2"
    for bin in table1 workloads theorem1_sweep theorem2_sweep; do
        "$1/${bin}" --quick >"$2/${bin}.txt"
    done
    RSCHED_BENCH_FAST=1 "$1/incremental_algos" |
        sed '/^concurrent schedulers/,/^Every cell above ran/d' >"$2/incremental_algos.txt"
}
outputs "${work}/target-ws-${sha}/release" "${work}/same-output/parent"
outputs "${root}/target/release" "${work}/same-output/change"

status=0
for out in table1 workloads theorem1_sweep theorem2_sweep incremental_algos; do
    if diff -u "${work}/same-output/parent/${out}.txt" "${work}/same-output/change/${out}.txt"; then
        echo "${out}: byte-identical to ${sha:0:7}"
    else
        echo "${out}: DIFFERS from ${sha:0:7}"
        status=1
    fi
done
exit "${status}"
