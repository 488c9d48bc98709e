#include "bgr/graph/dag.hpp"

#include <algorithm>

namespace bgr {

std::int32_t Dag::add_vertex() {
  BGR_CHECK(!frozen_);
  return vertex_count_++;
}

std::int32_t Dag::add_edge(std::int32_t from, std::int32_t to, double weight,
                           std::int32_t label) {
  BGR_CHECK(!frozen_);
  BGR_CHECK(from >= 0 && from < vertex_count());
  BGR_CHECK(to >= 0 && to < vertex_count());
  BGR_CHECK(from != to);
  const auto id = static_cast<std::int32_t>(edges_.size());
  edges_.push_back(Edge{from, to, weight, label});
  return id;
}

template <typename KeyFn>
void Dag::build_csr(std::vector<std::int32_t>& offsets,
                    std::vector<std::int32_t>& list, KeyFn&& key) const {
  const auto n = static_cast<std::size_t>(vertex_count_);
  offsets.assign(n + 1, 0);
  for (const Edge& e : edges_) ++offsets[static_cast<std::size_t>(key(e)) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  list.resize(edges_.size());
  std::vector<std::int32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto v = static_cast<std::size_t>(key(edges_[e]));
    list[static_cast<std::size_t>(cursor[v]++)] = static_cast<std::int32_t>(e);
  }
}

void Dag::freeze() {
  BGR_CHECK(!frozen_);
  const auto n = static_cast<std::size_t>(vertex_count_);
  build_csr(out_offsets_, out_list_, [](const Edge& e) { return e.from; });
  build_csr(in_offsets_, in_list_, [](const Edge& e) { return e.to; });

  std::vector<std::int32_t> indegree(n, 0);
  for (const Edge& e : edges_) ++indegree[static_cast<std::size_t>(e.to)];
  std::vector<std::int32_t> queue;
  queue.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) queue.push_back(static_cast<std::int32_t>(v));
  }
  topo_.clear();
  topo_.reserve(n);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto v = queue[head];
    topo_.push_back(v);
    const auto lo = out_offsets_[static_cast<std::size_t>(v)];
    const auto hi = out_offsets_[static_cast<std::size_t>(v) + 1];
    for (std::int32_t k = lo; k < hi; ++k) {
      const auto e = out_list_[static_cast<std::size_t>(k)];
      const auto w = edges_[static_cast<std::size_t>(e)].to;
      if (--indegree[static_cast<std::size_t>(w)] == 0) queue.push_back(w);
    }
  }
  BGR_CHECK_MSG(topo_.size() == n, "timing graph contains a cycle");
  frozen_ = true;  // adjacency views below are now valid

  // Forward topological levels: every edge goes from a strictly lower to
  // a higher level (DirtyPropagator buckets its dirty cone by level).
  level_of_.assign(n, 0);
  for (const auto v : topo_) {
    for (const auto e : in_edges(v)) {
      const auto u = edges_[static_cast<std::size_t>(e)].from;
      level_of_[static_cast<std::size_t>(v)] =
          std::max(level_of_[static_cast<std::size_t>(v)],
                   level_of_[static_cast<std::size_t>(u)] + 1);
    }
    level_count_ = std::max(level_count_,
                            level_of_[static_cast<std::size_t>(v)] + 1);
  }
}

std::vector<double> Dag::longest_from(const std::vector<std::int32_t>& sources,
                                      const std::vector<bool>& subset) const {
  BGR_CHECK(frozen_);
  const auto n = static_cast<std::size_t>(vertex_count());
  auto in_subset = [&](std::int32_t v) {
    return subset.empty() || subset[static_cast<std::size_t>(v)];
  };
  std::vector<double> lp(n, kMinusInf);
  for (auto s : sources) {
    if (in_subset(s)) lp[static_cast<std::size_t>(s)] = 0.0;
  }
  for (auto v : topo_) {
    if (lp[static_cast<std::size_t>(v)] == kMinusInf || !in_subset(v)) continue;
    for (auto e : out_edges(v)) {
      const Edge& ed = edges_[static_cast<std::size_t>(e)];
      if (!in_subset(ed.to)) continue;
      lp[static_cast<std::size_t>(ed.to)] =
          std::max(lp[static_cast<std::size_t>(ed.to)],
                   lp[static_cast<std::size_t>(v)] + ed.weight);
    }
  }
  return lp;
}

std::vector<double> Dag::longest_to(const std::vector<std::int32_t>& sinks,
                                    const std::vector<bool>& subset) const {
  BGR_CHECK(frozen_);
  const auto n = static_cast<std::size_t>(vertex_count());
  auto in_subset = [&](std::int32_t v) {
    return subset.empty() || subset[static_cast<std::size_t>(v)];
  };
  std::vector<double> ls(n, kMinusInf);
  for (auto s : sinks) {
    if (in_subset(s)) ls[static_cast<std::size_t>(s)] = 0.0;
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const auto v = *it;
    if (ls[static_cast<std::size_t>(v)] == kMinusInf || !in_subset(v)) continue;
    for (auto e : in_edges(v)) {
      const Edge& ed = edges_[static_cast<std::size_t>(e)];
      if (!in_subset(ed.from)) continue;
      ls[static_cast<std::size_t>(ed.from)] =
          std::max(ls[static_cast<std::size_t>(ed.from)],
                   ls[static_cast<std::size_t>(v)] + ed.weight);
    }
  }
  return ls;
}

std::vector<bool> Dag::reachable_from(const std::vector<std::int32_t>& sources,
                                      bool forward) const {
  BGR_CHECK(frozen_);
  const auto n = static_cast<std::size_t>(vertex_count());
  std::vector<bool> seen(n, false);
  std::vector<std::int32_t> stack;
  for (auto s : sources) {
    if (!seen[static_cast<std::size_t>(s)]) {
      seen[static_cast<std::size_t>(s)] = true;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    for (auto e : forward ? out_edges(v) : in_edges(v)) {
      const Edge& ed = edges_[static_cast<std::size_t>(e)];
      const auto w = forward ? ed.to : ed.from;
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

std::vector<bool> Dag::between(const std::vector<std::int32_t>& sources,
                               const std::vector<std::int32_t>& sinks) const {
  auto fwd = reachable_from(sources, /*forward=*/true);
  const auto bwd = reachable_from(sinks, /*forward=*/false);
  for (std::size_t v = 0; v < fwd.size(); ++v) {
    fwd[v] = fwd[v] && bwd[v];
  }
  return fwd;
}

}  // namespace bgr
