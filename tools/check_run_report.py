#!/usr/bin/env python3
"""Validate bgr run reports (--metrics-out) and trace files (--trace-out).

Checks the layout contract documented in src/bgr/obs/run_report.hpp:

  check_run_report.py report.json
      Schema check: schema_version, kind, metrics split by scope; for
      kind "bgr_route" additionally the design/options/result/stats/
      phases/run sections, and run.verify_seconds (the signoff wall
      time, written when the run verified) a non-negative number.

  check_run_report.py report.json --trace trace.json
      Also validates the Chrome trace-event file: well-formed JSON, every
      'X' event carries non-negative ts/dur, events are emitted in
      non-decreasing timestamp order, and spans nest strictly per thread
      (no partial overlap).

  check_run_report.py report.json --compare-semantic other.json
      Determinism check: after stripping the "run" section, every "wall"
      sub-object and "metrics.nondeterministic", the two reports must be
      byte-for-byte identical. Used by CI to compare --threads 1 vs N.

  check_run_report.py report.json --serve-events events.ndjson
      Also validates a captured bgr_serve NDJSON response stream: every
      line parses, ts_us is present and non-decreasing, seq is present
      and strictly increasing, and every job lifecycle event
      (accepted/started/done/cancelled/failed) carries a trace id.

Exit status 0 on success; 1 with a diagnostic on the first failure.
"""

import argparse
import json
import re
import sys

SCHEMA_VERSION = 1
ROUTE_SECTIONS = ("design", "options", "result", "stats", "phases", "run")
# Semantic counters every routed report must carry, whatever the backend.
# The cache counters register (at zero) even under the Dijkstra backend.
PATH_SEARCH_BACKENDS = ("cached", "dijkstra")

ROUTE_SEMANTIC_METRICS = (
    "route.deleted_edges",
    # Routing graphs constructed (one per net) and reset in place by a
    # re-route (DESIGN.md §5); feedthrough assignment rounds (§3.1).
    "route.graphs_built",
    "route.graph_resets",
    "assign.rounds",
    # Re-routes answered from the reroute memo (DESIGN.md §5).
    "route.reroutes_skipped",
    # Selection-key effort (DESIGN.md §5): half recomputations, of which
    # delay halves (path search + STA evaluation), and the density halves
    # that re-read their span aggregates.
    "route.score_cache_miss",
    "route.key_delay_evals",
    "route.key_span_reads",
    "path.searches",
    "path.pops",
    "path.relaxations",
    "path.cache_builds",
    "path.cache_hits",
    "path.cone_repairs",
    "sta.full_sweeps",
    "shard.components",
    "shard.commits",
    "shard.fallbacks",
    "shard.nets",

)
# The scale bench (bench_scale) routes a block-structured preset at 1, 2
# and 4 threads and records the deletion loop's shard decomposition, the
# identity and speedup gates and the per-thread-count wall.
SCALE_SECTIONS = ("design", "route", "shards", "result", "run")
SCALE_SHARD_FIELDS = ("count", "commits")
SCALE_RESULT_FIELDS = ("nets_per_second_floor", "speedup_floor_4",
                       "sharded", "identical", "pass")
SCALE_RUN_FIELDS = ("seconds", "nets_per_second", "hardware_threads",
                    "speedup_4", "speedup_gated", "threads")
# Daemon reports ("bgr_serve" and the in-process "bench.serve") carry the
# serve/totals sections plus the admission/cache/cancellation counters —
# all semantic: for a given request stream they are functions of the
# submitted contents and configured bounds, never of scheduling.
SERVE_KINDS = ("bgr_serve", "bench.serve")
SERVE_SECTIONS = ("serve", "totals", "run")
SERVE_SEMANTIC_METRICS = (
    "serve.jobs_accepted",
    "serve.jobs_rejected",
    "serve.jobs_completed",
    "serve.jobs_failed",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cancellations",
)


def fail(msg):
    print(f"check_run_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_metrics(report, path):
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: missing 'metrics' object")
    for scope in ("semantic", "nondeterministic"):
        if not isinstance(metrics.get(scope), dict):
            fail(f"{path}: metrics.{scope} missing or not an object")
        for name, value in metrics[scope].items():
            if isinstance(value, int):
                continue  # counter
            if isinstance(value, dict):  # histogram
                for field in ("count", "sum", "min", "max", "buckets"):
                    if field not in value:
                        fail(f"{path}: histogram {name} lacks '{field}'")
                continue
            fail(f"{path}: metric {name} is neither counter nor histogram")


def check_report(report, path):
    if report.get("schema_version") != SCHEMA_VERSION:
        fail(f"{path}: schema_version {report.get('schema_version')!r}, "
             f"expected {SCHEMA_VERSION}")
    kind = report.get("kind")
    if not isinstance(kind, str) or not kind:
        fail(f"{path}: missing 'kind'")
    check_metrics(report, path)
    if kind == "bgr_route":
        for section in ROUTE_SECTIONS:
            if section not in report:
                fail(f"{path}: missing '{section}' section")
        for name in ROUTE_SEMANTIC_METRICS:
            if name not in report["metrics"]["semantic"]:
                fail(f"{path}: metrics.semantic lacks '{name}'")
        path_search = report["options"].get("path_search")
        if path_search not in PATH_SEARCH_BACKENDS:
            fail(f"{path}: options.path_search must be one of "
                 f"{', '.join(PATH_SEARCH_BACKENDS)}, got {path_search!r}")
        if not isinstance(report["phases"], list) or not report["phases"]:
            fail(f"{path}: 'phases' must be a non-empty array")
        for ph in report["phases"]:
            if "name" not in ph or "wall" not in ph:
                fail(f"{path}: phase entry lacks name/wall: {ph}")
        # Signoff wall time, present when the run verified (--verify).
        verify_seconds = report["run"].get("verify_seconds")
        if verify_seconds is not None and (
                isinstance(verify_seconds, bool)
                or not isinstance(verify_seconds, (int, float))
                or verify_seconds < 0):
            fail(f"{path}: run.verify_seconds must be a non-negative "
                 f"number, got {verify_seconds!r}")
    if kind == "bench.scale":
        for section in SCALE_SECTIONS:
            if section not in report:
                fail(f"{path}: missing '{section}' section")
        for name in ROUTE_SEMANTIC_METRICS:
            if name not in report["metrics"]["semantic"]:
                fail(f"{path}: metrics.semantic lacks '{name}'")
        shards = report["shards"]
        for field in SCALE_SHARD_FIELDS:
            if field not in shards:
                fail(f"{path}: shards.{field} missing")
        result = report["result"]
        for field in SCALE_RESULT_FIELDS:
            if field not in result:
                fail(f"{path}: result.{field} missing")
        run = report["run"]
        for field in SCALE_RUN_FIELDS:
            if field not in run:
                fail(f"{path}: run.{field} missing")
        threads = run["threads"]
        if not isinstance(threads, list) or [
                e.get("threads") for e in threads] != [1, 2, 4]:
            fail(f"{path}: run.threads must list threads 1, 2 and 4")
        for entry in threads:
            for field in ("route_seconds", "phase_seconds"):
                if field not in entry:
                    fail(f"{path}: run.threads entry lacks '{field}': "
                         f"{entry}")
        # Every committed deletion of the sharded initial phase is counted.
        if shards["count"] > 1 and shards["commits"] <= 0:
            fail(f"{path}: a sharded run committed no deletion")
    if kind in SERVE_KINDS:
        for section in SERVE_SECTIONS:
            if section not in report:
                fail(f"{path}: missing '{section}' section")
        for name in SERVE_SEMANTIC_METRICS:
            if name not in report["metrics"]["semantic"]:
                fail(f"{path}: metrics.semantic lacks '{name}'")
        totals = report["totals"]
        for field in ("jobs_accepted", "jobs_completed", "cache_hits",
                      "cache_misses"):
            if not isinstance(totals.get(field), int):
                fail(f"{path}: totals.{field} missing or not an integer")


def strip_nondeterministic(node):
    """Removes the "run" section, "wall" sub-objects and the
    nondeterministic metric scope, recursively."""
    if isinstance(node, dict):
        return {
            k: strip_nondeterministic(v)
            for k, v in node.items()
            if k not in ("run", "wall", "nondeterministic")
        }
    if isinstance(node, list):
        return [strip_nondeterministic(v) for v in node]
    return node


def diff_paths(a, b, prefix=""):
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{prefix}/{k} (only in one report)")
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


def check_compare(path_a, path_b):
    a = strip_nondeterministic(load(path_a))
    b = strip_nondeterministic(load(path_b))
    if a != b:
        diffs = diff_paths(a, b)
        for d in diffs[:20]:
            print(f"  semantic mismatch at {d}", file=sys.stderr)
        fail(f"{path_a} and {path_b} differ semantically "
             f"({len(diffs)} paths)")


def check_trace(path):
    trace = load(path)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty 'traceEvents'")
    per_tid = {}
    last_ts = None
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            fail(f"{path}: event {i} has unexpected ph {ph!r}")
        for field in ("name", "cat", "ts", "dur", "pid", "tid"):
            if field not in ev:
                fail(f"{path}: event {i} lacks '{field}'")
        ts, dur = ev["ts"], ev["dur"]
        if ts < 0 or dur < 0:
            fail(f"{path}: event {i} has negative ts/dur")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: event {i} breaks timestamp order "
                 f"({ts} after {last_ts})")
        last_ts = ts
        per_tid.setdefault(ev["tid"], []).append((ts, ts + dur, ev["name"], i))
    # Spans on one thread must nest strictly: a span that starts inside
    # another must also end inside it.
    for tid, spans in per_tid.items():
        stack = []
        for start, end, name, i in spans:  # already in ts order
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(f"{path}: tid {tid} span '{name}' (event {i}, "
                     f"[{start},{end}]) partially overlaps "
                     f"'{stack[-1][2]}' [{stack[-1][0]},{stack[-1][1]}]")
            stack.append((start, end, name))
    print(f"check_run_report: trace OK ({path}: {len(events)} events, "
          f"{len(per_tid)} threads)")


LIFECYCLE_EVENTS = ("accepted", "started", "done", "cancelled", "failed")
TRACE_ID_RE = re.compile(r"^t-[0-9a-f]+$")


def check_serve_events(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln]
    except OSError as e:
        fail(f"{path}: {e}")
    if not lines:
        fail(f"{path}: empty event stream")
    last_ts = None
    last_seq = None
    lifecycle = 0
    for i, line in enumerate(lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}: line {i} is not JSON: {e}")
        ts = event.get("ts_us")
        if not isinstance(ts, int) or ts < 0:
            fail(f"{path}: line {i} lacks a non-negative integer 'ts_us'")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: line {i} breaks ts_us order ({ts} after "
                 f"{last_ts})")
        last_ts = ts
        seq = event.get("seq")
        if not isinstance(seq, int):
            fail(f"{path}: line {i} lacks an integer 'seq'")
        if last_seq is not None and seq <= last_seq:
            fail(f"{path}: line {i} breaks seq order ({seq} after "
                 f"{last_seq})")
        last_seq = seq
        if event.get("event") in LIFECYCLE_EVENTS:
            lifecycle += 1
            trace = event.get("trace")
            if not isinstance(trace, str) or not TRACE_ID_RE.match(trace):
                fail(f"{path}: line {i} ({event.get('event')} for "
                     f"{event.get('id')!r}) lacks a valid trace id: "
                     f"{trace!r}")
    print(f"check_run_report: serve events OK ({path}: {len(lines)} "
          f"events, {lifecycle} lifecycle events with trace ids)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="run report JSON (--metrics-out)")
    parser.add_argument("--trace", help="trace-event JSON (--trace-out)")
    parser.add_argument("--serve-events", metavar="NDJSON",
                        help="captured bgr_serve response stream to check")
    parser.add_argument("--compare-semantic", metavar="OTHER",
                        help="second report that must match semantically")
    args = parser.parse_args()

    check_report(load(args.report), args.report)
    print(f"check_run_report: report OK ({args.report})")
    if args.trace:
        check_trace(args.trace)
    if args.serve_events:
        check_serve_events(args.serve_events)
    if args.compare_semantic:
        check_report(load(args.compare_semantic), args.compare_semantic)
        check_compare(args.report, args.compare_semantic)
        print("check_run_report: semantic sections identical")


if __name__ == "__main__":
    main()
