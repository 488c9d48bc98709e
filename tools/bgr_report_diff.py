#!/usr/bin/env python3
"""Diff two bgr run reports (or bench BENCH_*.json documents).

Semantic content — everything outside the "run" section, "wall"
sub-objects, the nondeterministic metric scope and wall-derived scalar
keys — must match exactly: any difference is a regression and exits 1.
Wall-shaped values, wherever they sit (the stripped sections included,
e.g. "run/verify_seconds"), are compared with a relative threshold
instead: by default they only warn (machines differ), with
--wall-threshold they fail the diff when the new value is slower by more
than the given fraction.

  bgr_report_diff.py baseline.json candidate.json
  bgr_report_diff.py baseline.json candidate.json --wall-threshold 0.25

Key-name patterns treated as wall-derived wherever they appear (bench
documents put timings outside "run": e.g. bench_path_search's per-mode
"route_seconds" and "wall_speedup"): *seconds*, *speedup*, *_per_second*,
*_us, *wall*, *bytes*. Exit status: 0 clean, 1 semantic regression (or
wall threshold exceeded), 2 usage/IO error.
"""

import argparse
import json
import re
import sys

# Substring patterns (case-insensitive) marking a key as wall-derived no
# matter where it sits in the document.
WALL_KEY_RE = re.compile(
    r"seconds|speedup|per_second|wall|_us$|bytes|latency", re.IGNORECASE)
# Sections/keys stripped wholesale, matching check_run_report.py's
# strip_nondeterministic contract.
STRIP_KEYS = ("run", "wall", "nondeterministic")


def fail(msg, code=2):
    print(f"bgr_report_diff: FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def is_wall_key(key):
    return isinstance(key, str) and WALL_KEY_RE.search(key) is not None


def split_semantic(node):
    """Returns (semantic, walls): the document with wall-shaped content
    removed, and a flat {path: value} map of the numeric values removed."""
    walls = {}

    def is_wall_value(key, value):
        return is_wall_key(key) and isinstance(value, (int, float)) \
            and not isinstance(value, bool)

    def collect_walls(node, prefix):
        """Keeps only the wall-shaped numbers of a stripped subtree."""
        if isinstance(node, dict):
            for key, value in node.items():
                path = f"{prefix}/{key}"
                if is_wall_value(key, value):
                    walls[path] = value
                else:
                    collect_walls(value, path)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                collect_walls(v, f"{prefix}[{i}]")

    def walk(node, prefix):
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                path = f"{prefix}/{key}"
                if key in STRIP_KEYS:
                    collect_walls(value, path)
                    continue
                if is_wall_value(key, value):
                    walls[path] = value
                    continue
                out[key] = walk(value, path)
            return out
        if isinstance(node, list):
            return [walk(v, f"{prefix}[{i}]") for i, v in enumerate(node)]
        return node

    return walk(node, ""), walls


def diff_paths(a, b, prefix=""):
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{prefix}/{k} (only in candidate)")
            elif k not in b:
                out.append(f"{prefix}/{k} (only in baseline)")
            else:
                out.extend(diff_paths(a[k], b[k], f"{prefix}/{k}"))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{prefix} (length {len(a)} vs {len(b)})"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_paths(x, y, f"{prefix}[{i}]"))
        return out
    return [] if a == b else [f"{prefix} ({a!r} vs {b!r})"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="reference report JSON")
    parser.add_argument("candidate", help="report JSON under test")
    parser.add_argument("--wall-threshold", type=float, metavar="FRAC",
                        help="fail when a wall-shaped value regresses by "
                             "more than FRAC (e.g. 0.25 = 25%% slower); "
                             "default: warn only")
    args = parser.parse_args()

    base_sem, base_walls = split_semantic(load(args.baseline))
    cand_sem, cand_walls = split_semantic(load(args.candidate))

    diffs = diff_paths(base_sem, cand_sem)
    if diffs:
        for d in diffs[:30]:
            print(f"  semantic diff at {d}", file=sys.stderr)
        fail(f"{args.baseline} vs {args.candidate}: {len(diffs)} semantic "
             f"difference(s)", code=1)

    wall_fail = False
    for path in sorted(set(base_walls) & set(cand_walls)):
        old, new = base_walls[path], cand_walls[path]
        if old <= 0:
            continue
        rel = (new - old) / old
        if args.wall_threshold is not None and rel > args.wall_threshold:
            print(f"  wall regression at {path}: {old} -> {new} "
                  f"(+{rel:.1%} > {args.wall_threshold:.0%})",
                  file=sys.stderr)
            wall_fail = True
        elif abs(rel) > 0.10:
            print(f"bgr_report_diff: note: wall drift at {path}: "
                  f"{old} -> {new} ({rel:+.1%})")
    if wall_fail:
        fail("wall threshold exceeded", code=1)

    print(f"bgr_report_diff: OK ({args.baseline} vs {args.candidate}: "
          f"semantic identical, {len(base_walls)} wall value(s) "
          f"threshold-checked)")


if __name__ == "__main__":
    main()
