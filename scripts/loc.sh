#!/usr/bin/env bash
# Prints the two line counts simplicity work is judged by, from tracked
# files only (plain git + wc, offline): Rust lines outside benchmark/, and
# the same without tests/, benches/ and examples/ directories.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { xargs -r cat | wc -l; }

files=$(git ls-files '*.rs' | grep -v '^benchmark/')
all=$(count <<<"${files}")
src=$(grep -Ev '(^|/)(tests|benches|examples)/' <<<"${files}" | count)
echo "rust lines outside benchmark/:                       ${all}"
echo "  of which outside tests/, benches/ and examples/:   ${src}"
