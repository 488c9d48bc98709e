#pragma once

#include <cstdint>
#include <vector>

#include "bgr/graph/dag.hpp"

namespace bgr {

/// Counters of the timing engine, split by update style. Bookkeeping only —
/// no algorithm reads them — so they cannot perturb results. Snapshot and
/// subtract to attribute activity to a router phase.
struct StaStats {
  std::int64_t incremental_updates = 0;  // dirty-cone propagations run
  std::int64_t full_sweeps = 0;          // from-scratch constraint recomputes
  std::int64_t dirty_seeds = 0;          // vertices seeded by weight changes
  std::int64_t dirty_vertices = 0;       // vertices re-relaxed incrementally
  std::int64_t full_vertices = 0;        // vertices relaxed by full sweeps
  /// Total vertex relaxations, whichever path performed them.
  [[nodiscard]] std::int64_t relaxations() const {
    return dirty_vertices + full_vertices;
  }
};

/// Incremental longest-path maintenance over one masked DAG (a constraint
/// subgraph G_d(P)): after some arc weights changed, re-establishes the
/// arrival-time fixed point
///   lp(v) = max(is_source(v) ? 0 : -inf,  max over in-arcs (u,v) in the
///               mask of lp(u) + w(u,v))
/// touching only the *dirty cone* — the fanout of the changed arcs, cut
/// short wherever a recomputed value comes out unchanged.
///
/// Exactness: a vertex is recomputed with the full pull over its in-arcs,
/// so its value is bit-identical to what a from-scratch sweep would
/// produce, by induction over topological levels (max over the same
/// doubles in the same in-edge order). Early termination is sound because
/// an unchanged value cannot change any successor's pull.
///
/// Levels are processed in ascending order and each dirty vertex pulls
/// only from strictly lower (already final) levels; a vertex whose value
/// moved marks its in-mask successors, which land in strictly higher
/// levels, so nothing already processed is ever re-marked.
///
/// The propagator is constraint-agnostic scratch: one instance serves every
/// constraint of an analyzer, as long as calls do not overlap.
class DirtyPropagator {
 public:
  explicit DirtyPropagator(const Dag& dag);

  struct Result {
    std::int64_t seeds = 0;    // distinct in-mask seed vertices
    std::int64_t relaxed = 0;  // vertices re-pulled (dirty-cone size)
    bool any_change = false;   // some lp value actually moved
  };

  /// Re-propagates `lp` after the weights of arcs ending at
  /// `seed_vertices` changed. `mask` selects the constraint subgraph;
  /// `is_source` flags the constraint's source vertices (lp floor 0).
  /// `lp` must hold the fixed point of the pre-change weights.
  Result propagate(const std::vector<std::int32_t>& seed_vertices,
                   const std::vector<bool>& mask,
                   const std::vector<char>& is_source,
                   std::vector<double>& lp);

 private:
  const Dag* dag_;
  std::vector<char> dirty_;  // cleared back to 0 after every propagate
  std::vector<std::vector<std::int32_t>> pending_;  // per-level dirty lists
};

}  // namespace bgr
