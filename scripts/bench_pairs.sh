#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark's workloads — the table a
# performance PR has to show (benchmark/README.md "Rule", BENCHMARK.json).
#
#   scripts/bench_pairs.sh <parent-sha> <workload>|all [pairs=10] [seconds=8]
#
# Builds the benchmark package of <parent-sha> (a `git archive` export under
# target/bench_pairs/, so nothing is registered in .git) and of the working
# tree, each into a target directory of its own, then runs them alternately:
# pair i uses seed i on both sides, and who goes first flips every pair.
# `all` loops the four workloads of BENCHMARK.json inside every pair and
# prints them as one table — what a PR that claims no gain has to show, every
# metric × workload cell. Per end-to-end metric it prints both medians, both
# quartile pairs (nearest rank, over the runs' medians), how many pairs the
# change won, the benchmark's bound, and a verdict by the rule of the
# benchmark: a gain needs ≥ 9/10 of the pairs and medians further apart than
# the parent's own quartiles; a regression is a median worse by more than the
# bound; "unresolved" is a parent spread wider than the bound with neither.
#
# Before each pair it times a fixed awk spin solo and as two concurrent
# copies; the ratio of the two wall times is the pair's `host_ratio` (≈ 1 on
# an idle host with two free CPUs, ~2 when a neighbour holds one of them).
# Beside every verdict it prints how many pairs ran with host_ratio > 1.25
# and the parent / change medians over the other pairs. The verdict itself
# is still computed over all pairs.
#
# Offline: plain git + cargo + awk. Edits nothing under benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/bench_pairs.sh <parent-sha> <workload>|all [pairs=10] [seconds=8]" >&2
    exit 2
fi
sha="$(git rev-parse --verify "$1^{commit}")"
if [ "$2" = all ]; then
    workloads="mis_sparse delaunay_uniform sssp_gnm service_conn"
else
    workloads="$2"
fi
pairs="${3:-10}"
seconds="${4:-8}"

root="$(pwd)"
work="${root}/target/bench_pairs"
parent="${work}/src-${sha}"
if [ ! -d "${parent}" ]; then
    mkdir -p "${parent}"
    git archive "${sha}" | tar -x -C "${parent}"
fi
echo "== building parent ${sha:0:7} and the working tree" >&2
CARGO_TARGET_DIR="${work}/target-${sha}" cargo build --release --offline --quiet \
    --manifest-path "${parent}/benchmark/Cargo.toml"
CARGO_TARGET_DIR="${work}/target-change" cargo build --release --offline --quiet \
    --manifest-path "${root}/benchmark/Cargo.toml"

runs="${work}/runs-$2.txt"
: >"${runs}"
# One run: the benchmark's own metric lines, tagged `<pair> <side>`, the
# metric named `<workload>.<metric>`.
run_side() { # <pair> <side> <workload> <source root> <binary>
    (cd "$4" && "$5" --workload "$3" --seed "$1" --seconds "${seconds}" --trace 0) |
        awk -v pair="$1" -v side="$2" -v w="$3" '
            $1 ~ /^[a-z_]+$/ && $NF ~ /%$/ { print pair, side, w "." $1, $2, $NF }
            /ops_failed=/ { split($2, f, "="); print pair, side, "failed", f[2], "-" }' >>"${runs}"
}
# A fixed CPU-bound spin, and the wall time of two concurrent copies over
# the wall time of one: the host contention a pair ran under.
spin() { awk 'BEGIN { for (i = 0; i < 6000000; i++) s += i; if (s < 0) print s }'; }
now() { date +%s.%N; }
host_ratio() {
    local t0 t1 t2
    t0="$(now)"
    spin
    t1="$(now)"
    spin &
    spin
    wait
    t2="$(now)"
    awk -v a="${t0}" -v b="${t1}" -v c="${t2}" 'BEGIN { printf "%.3f", (c - b) / (b - a) }'
}
for pair in $(seq 1 "${pairs}"); do
    ratio="$(host_ratio)"
    echo "${pair} host host_ratio ${ratio} -" >>"${runs}"
    echo "== pair ${pair}/${pairs} (seed ${pair}), host_ratio ${ratio}" >&2
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for workload in ${workloads}; do
        for side in ${order}; do
            if [ "${side}" = parent ]; then
                run_side "${pair}" parent "${workload}" "${parent}" \
                    "${work}/target-${sha}/release/rsched-benchmark"
            else
                run_side "${pair}" change "${workload}" "${root}" \
                    "${work}/target-change/release/rsched-benchmark"
            fi
        done
    done
done

echo "${workloads// /, }: ${pairs} pairs of ${seconds} s, parent ${sha:0:7} vs working tree (raw runs: ${runs#"${root}/"})"
echo "host_ratio per pair: $(awk '$3 == "host_ratio" { printf "%s%s", sep, $4; sep = " " }' "${runs}")"
sort -k3,3 -k2,2 -k4,4g "${runs}" | awk -v pairs="${pairs}" '
    function q(v, n, p,    r) { r = int(n * p); if (r < n * p) r++; if (r < 1) r = 1; return v[r] }
    function med(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
    # Median over the pairs with host_ratio <= 1.25 ("-" if none); the
    # values of one side arrive sorted, so the kept ones are too.
    function uncontended_med(name, side,    k, m, v) {
        m = 0
        for (k = 1; k <= n[name, side]; k++)
            if (hr[pair_of[name, side, k]] <= 1.25) v[++m] = val[name, side, k]
        return m ? sprintf("%.6g", med(v, m)) : "-"
    }
    $3 == "host_ratio" { hr[$1] = $4; hot += ($4 > 1.25); next }
    { name = $3; if (!(name in seen)) { seen[name] = 1; order[++names] = name }
      n[name, $2]++; val[name, $2, n[name, $2]] = $4; pair_of[name, $2, n[name, $2]] = $1
      at[name, $2, $1] = $4; bound[name] = $5 }
    END {
        printf "%-32s %12s %25s %12s %25s %6s %6s  %s\n", "workload.metric", "parent med", "parent q1..q3",
            "change med", "change q1..q3", "wins", "bound", "verdict"
        for (i = 1; i <= names; i++) {
            name = order[i]
            if (name == "failed") continue
            np = n[name, "parent"]; nc = n[name, "change"]
            for (k = 1; k <= np; k++) p[k] = val[name, "parent", k]
            for (k = 1; k <= nc; k++) c[k] = val[name, "change", k]
            higher = (name ~ /\.speedup_vs_seq$/)
            wins = 0; losses = 0
            for (k = 1; k <= pairs; k++) {
                d = at[name, "change", k] - at[name, "parent", k]
                if (higher) d = -d
                if (d < 0) wins++; else if (d > 0) losses++
            }
            pm = med(p, np); cm = med(c, nc); iqr = q(p, np, 0.75) - q(p, np, 0.25)
            b = bound[name]; sub(/%/, "", b); b = b / 100
            worse = higher ? (pm - cm) / pm : (cm - pm) / pm
            apart = (cm > pm ? cm - pm : pm - cm)
            if (worse > b) verdict = "REGRESSION"
            else if (wins >= 0.9 * (wins + losses) && wins > 0 && worse < 0 && apart > iqr) verdict = "gain"
            else if (iqr / pm > b) verdict = "unresolved (parent spread > bound)"
            else verdict = "within bound"
            printf "%-32s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %3d/%-2d %6s  %s (%+.1f%%)  [host_ratio > 1.25: %d/%d; uncontended med %s -> %s]\n",
                name, pm, q(p, np, 0.25), q(p, np, 0.75), cm, q(c, nc, 0.25), q(c, nc, 0.75),
                wins, pairs, bound[name], verdict, 100 * (cm - pm) / pm,
                hot, pairs, uncontended_med(name, "parent"), uncontended_med(name, "change")
        }
        fp = 0; fc = 0
        for (k = 1; k <= n["failed", "parent"]; k++) fp += val["failed", "parent", k]
        for (k = 1; k <= n["failed", "change"]; k++) fc += val["failed", "change", k]
        printf "failed checks: parent %d, change %d\n", fp, fc
    }'
