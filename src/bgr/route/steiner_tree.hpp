#pragma once

#include <cstdint>
#include <vector>

#include "bgr/graph/small_graph.hpp"
#include "bgr/route/path_search.hpp"

namespace bgr {

/// Registers the steiner.* counters (at zero) with the global metrics
/// registry. The router calls this unconditionally so every routed run
/// report carries them, whatever backend actually ran —
/// tools/check_run_report.py requires the full semantic set.
void register_steiner_metrics();

/// Bumps steiner.cache_hits: the engine returned a memoized no-skip tree
/// without running a construction.
void note_steiner_cache_hit();

/// Cost-distance Steiner tree construction (DESIGN.md §16, after Held &
/// Perner): grows one tree per net by greedy sink-path merging under the
/// weighted objective
///
///   cost(T) + Σ_s w_s · dist_T(root, s)
///
/// Sinks are processed in decreasing-weight order (ties by terminal
/// position, which is relabeling-invariant); each sink runs one
/// multi-source search seeded with g = w_s · dist_T(root, v) at every
/// current tree vertex and relaxing g + (1 + w_s) · weight(e) — the exact
/// delta of the objective for attaching the sink via a path from v. The
/// winning path's back-walk stops at the first tree vertex, so the result
/// stays a tree; newly attached vertices get their root distance
/// incrementally.
///
/// Each per-sink search is an exact label-correcting Dijkstra on the delta
/// objective that stops once the popped label reaches the sink's settled
/// label. `sink_weights` aligns index-for-index with `terminals`
/// (entries for the source are ignored); null or empty means w = 0
/// everywhere, which degrades to nearest-tree attachment — the classic
/// wirelength-greedy Steiner heuristic. `skip_edge` >= 0 is treated as
/// deleted, exactly like the other backends.
///
/// Deterministic for a fixed (graph, weights, skip) input: value-driven
/// seeds, a binary heap ordered on (g, vertex), adjacency-
/// order expansion and first-strict-improvement parents — no dependence
/// on thread count or scratch history. The emitted edge order (per sink,
/// attach vertex toward sink) is part of the contract: downstream float
/// summations depend on it.
SearchEffort steiner_tree_search(const SmallGraph& graph,
                                 std::int32_t source,
                                 const std::vector<std::int32_t>& terminals,
                                 const std::vector<double>* sink_weights,
                                 std::int32_t skip_edge,
                                 std::vector<std::int32_t>* out);

}  // namespace bgr
