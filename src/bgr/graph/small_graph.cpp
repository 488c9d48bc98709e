#include "bgr/graph/small_graph.hpp"

#include <algorithm>
#include <queue>

#include "bgr/obs/metrics.hpp"

namespace bgr {

std::int32_t SmallGraph::add_vertex() {
  vertex_alive_.push_back(true);
  adjacency_.emplace_back();
  ++alive_vertices_;
  return static_cast<std::int32_t>(vertex_alive_.size()) - 1;
}

std::int32_t SmallGraph::add_edge(std::int32_t u, std::int32_t v, double weight) {
  BGR_CHECK(vertex_alive(u) && vertex_alive(v));
  BGR_CHECK(u != v);
  const auto id = static_cast<std::int32_t>(edges_.size());
  edges_.push_back(Edge{u, v, weight, true});
  adjacency_[static_cast<std::size_t>(u)].push_back(id);
  adjacency_[static_cast<std::size_t>(v)].push_back(id);
  ++alive_edges_;
  return id;
}

void SmallGraph::remove_edge(std::int32_t e) {
  Edge& ed = edges_[static_cast<std::size_t>(e)];
  BGR_CHECK(ed.alive);
  ed.alive = false;
  --alive_edges_;
  auto erase_from = [e](std::vector<std::int32_t>& adj) {
    adj.erase(std::remove(adj.begin(), adj.end(), e), adj.end());
  };
  erase_from(adjacency_[static_cast<std::size_t>(ed.u)]);
  erase_from(adjacency_[static_cast<std::size_t>(ed.v)]);
}

void SmallGraph::remove_vertex(std::int32_t v) {
  BGR_CHECK(vertex_alive(v));
  BGR_CHECK_MSG(adjacency_[static_cast<std::size_t>(v)].empty(),
                "vertex still has incident edges");
  vertex_alive_[static_cast<std::size_t>(v)] = false;
  --alive_vertices_;
}

std::vector<bool> SmallGraph::alive_flags() const {
  std::vector<bool> flags = vertex_alive_;
  flags.reserve(vertex_alive_.size() + edges_.size());
  for (const Edge& ed : edges_) flags.push_back(ed.alive);
  return flags;
}

void SmallGraph::restore_alive(const std::vector<bool>& flags) {
  BGR_CHECK(flags.size() >= vertex_alive_.size() + edges_.size());
  alive_vertices_ = 0;
  for (std::size_t v = 0; v < vertex_alive_.size(); ++v) {
    vertex_alive_[v] = flags[v];
    alive_vertices_ += flags[v] ? 1 : 0;
    adjacency_[v].clear();
  }
  alive_edges_ = 0;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    Edge& ed = edges_[e];
    ed.alive = flags[vertex_alive_.size() + e];
    if (!ed.alive) continue;
    BGR_CHECK(vertex_alive(ed.u) && vertex_alive(ed.v));
    const auto id = static_cast<std::int32_t>(e);
    adjacency_[static_cast<std::size_t>(ed.u)].push_back(id);
    adjacency_[static_cast<std::size_t>(ed.v)].push_back(id);
    ++alive_edges_;
  }
}

bool SmallGraph::connects(const std::vector<std::int32_t>& required) const {
  if (required.empty()) return true;
  const auto comp = component_of(required.front());
  std::vector<bool> in_comp(vertex_alive_.size(), false);
  for (auto v : comp) in_comp[static_cast<std::size_t>(v)] = true;
  return std::all_of(required.begin(), required.end(), [&](std::int32_t v) {
    return vertex_alive(v) && in_comp[static_cast<std::size_t>(v)];
  });
}

std::vector<std::int32_t> SmallGraph::component_of(std::int32_t start) const {
  BGR_CHECK(vertex_alive(start));
  std::vector<bool> seen(vertex_alive_.size(), false);
  std::vector<std::int32_t> stack{start};
  std::vector<std::int32_t> out;
  seen[static_cast<std::size_t>(start)] = true;
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    out.push_back(v);
    for (auto e : adjacency_[static_cast<std::size_t>(v)]) {
      const auto w = other_end(e, v);
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return out;
}

namespace {

/// Thread-local scratch of the bridge search, reused across calls and
/// graphs: the DFS arrays grow to the largest graph their thread has met.
struct BridgeScratch {
  // Iterative DFS frame; entry_edge distinguishes parallel edges
  // (re-traversing a different parallel edge to the parent is a back
  // edge, so neither is a bridge).
  struct Frame {
    std::int32_t v;
    std::int32_t entry_edge;
    std::size_t next_index;
  };
  std::vector<std::int32_t> disc;
  std::vector<std::int32_t> low;
  std::vector<Frame> stack;
  std::vector<bool> fresh;  // update_bridges' new flags
};

BridgeScratch& bridge_scratch() {
  thread_local BridgeScratch scratch;
  return scratch;
}

}  // namespace

void SmallGraph::bridges(std::vector<bool>& out) const {
  const auto n = static_cast<std::size_t>(vertex_count());
  out.assign(edges_.size(), false);
  BridgeScratch& scratch = bridge_scratch();
  std::vector<std::int32_t>& disc = scratch.disc;
  std::vector<std::int32_t>& low = scratch.low;
  auto& stack = scratch.stack;
  disc.assign(n, -1);
  low.assign(n, 0);
  stack.clear();
  std::int32_t timer = 0;

  for (std::int32_t root = 0; root < vertex_count(); ++root) {
    if (!vertex_alive(root) || disc[static_cast<std::size_t>(root)] != -1) continue;
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = timer++;
    stack.push_back(BridgeScratch::Frame{root, kNone, 0});
    while (!stack.empty()) {
      BridgeScratch::Frame& f = stack.back();
      const auto& adj = adjacency_[static_cast<std::size_t>(f.v)];
      if (f.next_index < adj.size()) {
        const auto e = adj[f.next_index++];
        if (e == f.entry_edge) continue;
        const auto w = other_end(e, f.v);
        if (disc[static_cast<std::size_t>(w)] == -1) {
          disc[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] =
              timer++;
          stack.push_back(BridgeScratch::Frame{w, e, 0});
        } else {
          low[static_cast<std::size_t>(f.v)] =
              std::min(low[static_cast<std::size_t>(f.v)],
                       disc[static_cast<std::size_t>(w)]);
        }
      } else {
        const auto child = f.v;
        const auto entry = f.entry_edge;
        stack.pop_back();
        if (!stack.empty()) {
          BridgeScratch::Frame& parent = stack.back();
          low[static_cast<std::size_t>(parent.v)] =
              std::min(low[static_cast<std::size_t>(parent.v)],
                       low[static_cast<std::size_t>(child)]);
          if (low[static_cast<std::size_t>(child)] >
              disc[static_cast<std::size_t>(parent.v)]) {
            out[static_cast<std::size_t>(entry)] = true;
          }
        }
      }
    }
  }
}

void SmallGraph::update_bridges(std::vector<bool>& flags,
                                std::vector<std::int32_t>& new_bridges) const {
  std::vector<bool>& fresh = bridge_scratch().fresh;
  bridges(fresh);
  BGR_CHECK(flags.size() == fresh.size());
  // Dead edges read false in `fresh`, so only alive edges can qualify.
  for (std::size_t e = 0; e < fresh.size(); ++e) {
    if (fresh[e] && !flags[e]) {
      new_bridges.push_back(static_cast<std::int32_t>(e));
    }
  }
  // A copy, not a swap: both keep their storage (same size), so neither
  // side ever reallocates.
  flags = fresh;
}

SmallGraph::ShortestPaths SmallGraph::dijkstra(std::int32_t source,
                                               std::int32_t skip_edge) const {
  BGR_CHECK(vertex_alive(source));
  // Relaxation work is a pure function of the graph and its weights, so
  // the totals are semantic even though scoring fans dijkstra calls out
  // across threads; the inner loop accumulates locally and the counters
  // take one atomic add per call.
  static Counter& calls = MetricsRegistry::global().counter(
      "graph.dijkstra_calls", MetricScope::kSemantic);
  static Counter& relaxations = MetricsRegistry::global().counter(
      "graph.dijkstra_relaxations", MetricScope::kSemantic);
  std::int64_t relaxed = 0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ShortestPaths sp;
  sp.dist.assign(static_cast<std::size_t>(vertex_count()), kInf);
  sp.parent_edge.assign(static_cast<std::size_t>(vertex_count()), kNone);
  using Item = std::pair<double, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  sp.dist[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > sp.dist[static_cast<std::size_t>(v)]) continue;
    for (auto e : adjacency_[static_cast<std::size_t>(v)]) {
      if (e == skip_edge) continue;
      const Edge& ed = edges_[static_cast<std::size_t>(e)];
      const auto w = other_end(e, v);
      const double nd = d + ed.weight;
      if (nd < sp.dist[static_cast<std::size_t>(w)]) {
        sp.dist[static_cast<std::size_t>(w)] = nd;
        sp.parent_edge[static_cast<std::size_t>(w)] = e;
        heap.emplace(nd, w);
        ++relaxed;
      }
    }
  }
  calls.add(1);
  relaxations.add(relaxed);
  return sp;
}

}  // namespace bgr
