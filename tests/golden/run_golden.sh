#!/usr/bin/env bash
# Golden-file regression for the bgr_route CLI: routes the committed
# tests/golden/golden_design.txt in three configurations and diffs the
# full report against expected_report.txt. Wall-clock dependent lines (the
# per-phase time table and the "cpu" figure) are filtered out; everything
# else — phase statistics, dirty/relax counters, delay/area/length, the
# verifier verdict — is bit-exact by the router's determinism guarantee.
#
# usage: run_golden.sh <path-to-bgr_route> <path-to-tests/golden>
#
# To regenerate after an intentional behavior change:
#   run_golden.sh <bgr_route> <tests/golden> --regen
set -eu

bgr_route="$1"
golden_dir="$2"
expected="$golden_dir/expected_report.txt"

filter() {
  sed -e 's/, cpu [0-9.]* s$//' \
      -e '/^phase times/d' \
      -e '/^  .*s  *[0-9.]*%  regions/d'
}

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
{
  echo "== lumped, incremental sta, 2 threads =="
  "$bgr_route" "$golden_dir/golden_design.txt" --threads 2 --verify | filter
  echo "== rc, full sta, serial =="
  "$bgr_route" "$golden_dir/golden_design.txt" --rc --incremental-sta off \
      --threads 1 | filter
  echo "== lumped, dijkstra path search, serial =="
  # Must match the cached-engine runs above on every semantic line but the
  # search-effort columns (pops/relax) — the backends are bit-identical
  # in what they decide, not in how hard they work for it.
  "$bgr_route" "$golden_dir/golden_design.txt" --path-search dijkstra \
      --threads 1 | filter
} > "$actual"

if [ "${3:-}" = "--regen" ]; then
  cp "$actual" "$expected"
  echo "regenerated $expected"
  exit 0
fi

diff -u "$expected" "$actual"
