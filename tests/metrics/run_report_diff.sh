#!/usr/bin/env bash
# End-to-end check of tools/bgr_report_diff.py, the run-report differ:
#   - two routes of the same design at different thread counts diff clean
#     (wall values vary, semantic content is bit-identical),
#   - a seeded semantic regression (one counter bumped in a copy) makes
#     the differ exit nonzero,
#   - a seeded wall slowdown passes by default (warn-only) but fails
#     under --wall-threshold, also when it is the signoff time
#     run.verify_seconds.
#
# usage: run_report_diff.sh <path-to-bgr_route> <path-to-bgr_report_diff.py>
#        <path-to-golden-design> [python3]
set -eu

bgr_route="$1"
differ="$2"
design="$3"
python="${4:-python3}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$bgr_route" "$design" --threads 1 \
    --metrics-out "$workdir/base.json" > /dev/null
"$bgr_route" "$design" --threads 4 \
    --metrics-out "$workdir/cand.json" > /dev/null

# Clean diff: semantic identical across thread counts.
"$python" "$differ" "$workdir/base.json" "$workdir/cand.json"

# Seeded semantic regression: bump one semantic counter; must exit 1.
"$python" - "$workdir/cand.json" "$workdir/bad.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
report["metrics"]["semantic"]["route.deleted_edges"] += 1
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
if "$python" "$differ" "$workdir/base.json" "$workdir/bad.json" \
    > /dev/null 2>&1; then
  echo "run_report_diff: FAIL: seeded semantic regression not detected" >&2
  exit 1
fi

# Seeded wall slowdown: 10x wall_seconds. Warn-only by default...
"$python" - "$workdir/cand.json" "$workdir/slow.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
report["run"]["wall_seconds"] = report["run"].get("wall_seconds", 1.0)
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
"$python" - "$workdir/base.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
# Put a comparable wall value outside "run" so the threshold path has a
# key-pattern wall metric to chew on in both documents.
report.setdefault("result", {})["smoke_seconds"] = 1.0
with open(sys.argv[1], "w") as f:
    json.dump(report, f)
EOF
"$python" - "$workdir/slow.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
report.setdefault("result", {})["smoke_seconds"] = 10.0
with open(sys.argv[1], "w") as f:
    json.dump(report, f)
EOF
"$python" "$differ" "$workdir/base.json" "$workdir/slow.json"
if "$python" "$differ" "$workdir/base.json" "$workdir/slow.json" \
    --wall-threshold 0.5 > /dev/null 2>&1; then
  echo "run_report_diff: FAIL: wall threshold not enforced" >&2
  exit 1
fi

# The signoff time in "run" is a wall value too: a 10x slower
# run.verify_seconds warns by default and fails under --wall-threshold,
# while an unchanged one passes it.
"$bgr_route" "$design" --threads 1 --verify \
    --metrics-out "$workdir/verify.json" > /dev/null
"$python" - "$workdir/verify.json" "$workdir/verify_slow.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
report["run"]["verify_seconds"] = 10 * report["run"]["verify_seconds"] + 1.0
with open(sys.argv[2], "w") as f:
    json.dump(report, f)
EOF
"$python" "$differ" "$workdir/verify.json" "$workdir/verify.json" \
    --wall-threshold 0.5 > /dev/null
"$python" "$differ" "$workdir/verify.json" "$workdir/verify_slow.json" \
    > /dev/null
if "$python" "$differ" "$workdir/verify.json" "$workdir/verify_slow.json" \
    --wall-threshold 0.5 > /dev/null 2>&1; then
  echo "run_report_diff: FAIL: verify_seconds not treated as wall" >&2
  exit 1
fi

echo "run_report_diff: OK"
