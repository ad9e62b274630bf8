#!/usr/bin/env sh
# One-shot golden regeneration for the stats bit-identity tripwire.
#
# Rebuilds tests/golden/stats_mini_suite.csv — the 3-program mini-suite
# under every LSQ kind that CI (stats-identity job) and perf PRs compare
# against byte for byte. Run this ONLY when a PR intentionally changes
# simulated behavior; for pure performance/refactor PRs the suite must
# reproduce the existing golden unchanged. The regenerated file is
# reviewed like code: the diff IS the behavioral change.
#
# Usage: tools/regen_goldens.sh [build-dir]     (default: build)
#
# The command matrix below is the single source of truth; CI's check
# runs the identical loop and compares instead of overwriting.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
sim="$build/samie_sim"

if [ ! -x "$sim" ]; then
  echo "regen_goldens: '$sim' not found or not executable" >&2
  echo "  build it first: cmake -B build -S . && cmake --build build -j --target samie_sim" >&2
  exit 1
fi

out="$repo/tests/golden/stats_mini_suite.csv"
tmp="$out.tmp"
for lsq in conventional unbounded arb samie; do
  "$sim" --lsq="$lsq" --insts=20000 --csv gcc ammp mcf
done > "$tmp"
mv "$tmp" "$out"
echo "regen_goldens: wrote $out ($(wc -l < "$out") lines)" >&2
echo "regen_goldens: review the diff — it is the behavioral change" >&2
