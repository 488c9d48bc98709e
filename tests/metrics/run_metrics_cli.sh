#!/usr/bin/env bash
# End-to-end check of the observability CLI surface: routes the committed
# golden design with --metrics-out/--trace-out at 1 and 8 threads and runs
# tools/check_run_report.py over the artifacts. Validates
#   - both run reports against the schema contract,
#   - the trace file (valid JSON, ordered timestamps, strict per-thread
#     span nesting),
#   - bit-identical semantic sections across the two thread counts (the
#     second run also verifies, which adds only run.verify_seconds and a
#     trace span),
#   - that --log-format json is accepted.
#
# usage: run_metrics_cli.sh <path-to-bgr_route> <path-to-check_run_report.py>
#        <path-to-golden-design> [python3]
set -eu

bgr_route="$1"
checker="$2"
design="$3"
python="${4:-python3}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$bgr_route" "$design" --threads 1 --log-format json \
    --metrics-out "$workdir/run1.json" > "$workdir/out1.txt"
"$bgr_route" "$design" --threads 8 --verify \
    --metrics-out "$workdir/run8.json" --trace-out "$workdir/trace8.json" \
    > "$workdir/out8.txt"
# Signoff runs before the artifacts are written: the report records its
# wall time and the trace its span.
grep -q '"verify_seconds"' "$workdir/run8.json" ||
  { echo "run_metrics_cli: run report lacks run.verify_seconds" >&2; exit 1; }
grep -q '"cat": *"verify"' "$workdir/trace8.json" ||
  { echo "run_metrics_cli: trace lacks the verify span" >&2; exit 1; }

"$python" "$checker" "$workdir/run1.json"
"$python" "$checker" "$workdir/run8.json" --trace "$workdir/trace8.json" \
    --compare-semantic "$workdir/run1.json"

echo "run_metrics_cli: OK"
