#include "bgr/timing/incremental.hpp"

#include <algorithm>

namespace bgr {

DirtyPropagator::DirtyPropagator(const Dag& dag) : dag_(&dag) {
  BGR_CHECK(dag.frozen());
  dirty_.assign(static_cast<std::size_t>(dag.vertex_count()), 0);
  pending_.resize(static_cast<std::size_t>(dag.level_count()));
}

DirtyPropagator::Result DirtyPropagator::propagate(
    const std::vector<std::int32_t>& seed_vertices,
    const std::vector<bool>& mask, const std::vector<char>& is_source,
    std::vector<double>& lp) {
  Result result;
  const Dag& dag = *dag_;
  std::int32_t min_level = dag.level_count();
  std::int32_t max_level = -1;
  auto mark = [&](std::int32_t v) {
    if (dirty_[static_cast<std::size_t>(v)]) return;
    dirty_[static_cast<std::size_t>(v)] = 1;
    const std::int32_t l = dag.level_of(v);
    pending_[static_cast<std::size_t>(l)].push_back(v);
    min_level = std::min(min_level, l);
    max_level = std::max(max_level, l);
  };
  for (const std::int32_t v : seed_vertices) {
    if (!mask[static_cast<std::size_t>(v)] ||
        dirty_[static_cast<std::size_t>(v)]) {
      continue;
    }
    mark(v);
    ++result.seeds;
  }

  for (std::int32_t l = min_level; l <= max_level; ++l) {
    auto& bucket = pending_[static_cast<std::size_t>(l)];
    if (bucket.empty()) continue;
    for (const std::int32_t v : bucket) {
      double best = is_source[static_cast<std::size_t>(v)] ? 0.0
                                                           : Dag::kMinusInf;
      for (const auto e : dag.in_edges(v)) {
        const Dag::Edge& ed = dag.edge(e);
        if (!mask[static_cast<std::size_t>(ed.from)]) continue;
        best = std::max(best, lp[static_cast<std::size_t>(ed.from)] + ed.weight);
      }
      if (best == lp[static_cast<std::size_t>(v)]) continue;
      lp[static_cast<std::size_t>(v)] = best;
      result.any_change = true;
      // Successors land in strictly higher levels' lists, never this one.
      for (const auto e : dag.out_edges(v)) {
        const Dag::Edge& ed = dag.edge(e);
        if (mask[static_cast<std::size_t>(ed.to)]) mark(ed.to);
      }
    }
    result.relaxed += static_cast<std::int64_t>(bucket.size());
    // max_level may have grown through mark(); the loop bound re-reads it.
  }

  for (std::int32_t l = min_level; l <= max_level; ++l) {
    auto& bucket = pending_[static_cast<std::size_t>(l)];
    for (const std::int32_t v : bucket) {
      dirty_[static_cast<std::size_t>(v)] = 0;
    }
    bucket.clear();
  }
  return result;
}

}  // namespace bgr
