#!/usr/bin/env bash
# Exactness matrix: checks that two bgr_route builds route identically.
# Both binaries route C1P1, C1P2, C2P1, C2P2, C3P1 and 10k at threads 1, 2
# and 4, under the default options, --rc, --unconstrained and
# --incremental-sta off (the full-sweep STA path). Per run it
# compares the --stats result line and phase lines (effort columns
# included; the cpu figure and the wall-time table stripped) and the
# --save-route files byte for byte, and prints one line:
#
#   same  C2P1 --rc t4
#   DIFF  C2P1 --rc t4 (stats route)
#
# usage: exactness_matrix.sh PARENT_BIN CHANGE_BIN
#
# Exit status 0 when every run matches, 1 on any difference, 2 on bad
# arguments. A run takes a few seconds at most (10k is the largest), so the
# 72 pairs finish in a few minutes on one core.
set -u

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN (both executable bgr_route)" >&2
  exit 2
fi
parent="$1"
change="$2"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The result line without its cpu figure, and every per-phase line but the
# wall-time table.
filter() {
  grep -E '^(result:|phase )' | grep -v '^phase times' |
    sed -e 's/, cpu [0-9.]* s$//'
}

# run BIN TAG DATASET THREADS [OPTION]: stats to $work/TAG.stats, the
# routed result to $work/TAG.route.
run() {
  local bin="$1" tag="$2" dataset="$3" threads="$4"
  shift 4
  "$bin" "@$dataset" --threads "$threads" --stats \
      --save-route "$work/$tag.route" "$@" 2>&1 | filter > "$work/$tag.stats"
}

runs=0
diffs=0
for dataset in C1P1 C1P2 C2P1 C2P2 C3P1 10k; do
  for option in "" --rc --unconstrained "--incremental-sta off"; do
    for threads in 1 2 4; do
      label="$dataset ${option:-default} t$threads"
      runs=$((runs + 1))
      run "$parent" parent "$dataset" "$threads" $option
      run "$change" change "$dataset" "$threads" $option
      what=""
      if ! grep -q '^result:' "$work/parent.stats" ||
          ! cmp -s "$work/parent.stats" "$work/change.stats"; then
        what="stats"
      fi
      if [ ! -s "$work/parent.route" ] ||
          ! cmp -s "$work/parent.route" "$work/change.route"; then
        what="${what:+$what }route"
      fi
      if [ -z "$what" ]; then
        echo "same  $label"
      else
        echo "DIFF  $label ($what)"
        diffs=$((diffs + 1))
      fi
      rm -f "$work"/*.route "$work"/*.stats
    done
  done
done

echo "exactness matrix: $diffs of $runs runs differ"
[ "$diffs" -eq 0 ]
