#include "bgr/route/routing_graph.hpp"

#include <algorithm>
#include <map>

#include "bgr/route/net_span.hpp"

namespace bgr {

RoutingGraph::RoutingGraph(const Netlist& netlist, const Placement& placement,
                           const TechParams& tech,
                           const FeedthroughAssignment& assignment, NetId net,
                           NetId ft_net, std::int32_t ft_offset)
    : net_(net) {
  const NetSpan span = net_span(netlist, placement, net);

  // Collect physical points: (channel, x) → vertex, created lazily.
  std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> point_vertex;
  auto point = [&](std::int32_t channel, std::int32_t x) {
    const auto key = std::make_pair(channel, x);
    const auto it = point_vertex.find(key);
    if (it != point_vertex.end()) return it->second;
    const auto v = graph_.add_vertex();
    vertices_.push_back(
        RouteVertexInfo{RouteVertexKind::kPoint, TerminalId::invalid(), channel, x});
    point_vertex.emplace(key, v);
    return v;
  };

  // Terminal vertices and their candidate position points.
  const auto terms = netlist.net_terminals(net);
  std::vector<TerminalGeom> geoms;
  geoms.reserve(terms.size());
  for (const TerminalId term : terms) {
    geoms.push_back(terminal_geom(netlist, placement, term));
  }
  struct TermLink {
    std::int32_t term_vertex;
    std::int32_t point_vertex;
    std::int32_t channel;
    std::int32_t x;
  };
  std::vector<TermLink> term_links;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const auto tv = graph_.add_vertex();
    vertices_.push_back(RouteVertexInfo{RouteVertexKind::kTerminal, terms[i],
                                        -1, -1});
    terminal_vertices_.push_back(tv);
    if (terms[i] == netlist.net(net).driver) driver_vertex_ = tv;
    for (std::int32_t c = geoms[i].chan_lo; c <= geoms[i].chan_hi; ++c) {
      term_links.push_back(TermLink{tv, point(c, geoms[i].column), c,
                                    geoms[i].column});
    }
  }
  BGR_CHECK(driver_vertex_ >= 0);

  // Feedthrough crossing points (one column per crossed row, §3.1). The
  // shadow of a differential pair mirrors its primary one column right.
  struct FeedCross {
    std::int32_t row;
    std::int32_t x;
    std::int32_t lo_vertex;
    std::int32_t hi_vertex;
  };
  std::vector<FeedCross> crossings;
  for (const auto& [row, col] : assignment.rows(ft_net)) {
    if (row < span.row_lo() || row > span.row_hi()) continue;
    const std::int32_t x = col + ft_offset;
    crossings.push_back(FeedCross{row, x, point(row, x), point(row + 1, x)});
  }

  // Trunk edges: consecutive points within each channel.
  std::map<std::int32_t, std::vector<std::pair<std::int32_t, std::int32_t>>>
      channel_points;  // channel → (x, vertex)
  for (const auto& [key, v] : point_vertex) {
    channel_points[key.first].emplace_back(key.second, v);
  }
  for (auto& [channel, pts] : channel_points) {
    std::sort(pts.begin(), pts.end());
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const auto [x0, v0] = pts[i - 1];
      const auto [x1, v1] = pts[i];
      if (x0 == x1) continue;  // duplicate column collapses to one vertex
      const double len = static_cast<double>(x1 - x0) * tech.horiz_step_um();
      const auto e = graph_.add_edge(v0, v1, len);
      BGR_CHECK(e == static_cast<std::int32_t>(edges_.size()));
      edges_.push_back(RouteEdgeInfo{RouteEdgeKind::kTrunk, channel,
                                     IntInterval{x0, x1}, len});
    }
  }

  // Terminal-position correspondence edges (zero weight).
  for (const TermLink& link : term_links) {
    const auto e = graph_.add_edge(link.term_vertex, link.point_vertex, 0.0);
    BGR_CHECK(e == static_cast<std::int32_t>(edges_.size()));
    edges_.push_back(RouteEdgeInfo{RouteEdgeKind::kTermLink, link.channel,
                                   IntInterval::point(link.x), 0.0});
  }

  // Feedthrough branch edges. The Dijkstra weight includes the expected
  // in-channel verticals on both sides of the crossing; the physical
  // length (length_um) stays the bare row height.
  channel_depth_est_um_ = tech.channel_depth_est_um;
  for (const FeedCross& fc : crossings) {
    const auto e = graph_.add_edge(
        fc.lo_vertex, fc.hi_vertex,
        tech.row_cross_um() + 2.0 * channel_depth_est_um_);
    BGR_CHECK(e == static_cast<std::int32_t>(edges_.size()));
    edges_.push_back(RouteEdgeInfo{RouteEdgeKind::kFeed, fc.row,
                                   IntInterval::point(fc.x),
                                   tech.row_cross_um()});
  }

  BGR_CHECK_MSG(graph_.connects(terminal_vertices_),
                "routing graph disconnected for net " +
                    netlist.net(net).name);

  required_.assign(static_cast<std::size_t>(graph_.vertex_count()), false);
  for (const auto tv : terminal_vertices_) {
    required_[static_cast<std::size_t>(tv)] = true;
  }

  // Prune any initially dangling non-terminal branches (e.g. a crossing
  // point outside all trunks), then compute bridges.
  std::vector<std::int32_t> queue;
  for (std::int32_t v = 0; v < graph_.vertex_count(); ++v) {
    queue.push_back(v);
  }
  while (!queue.empty()) {
    const auto v = queue.back();
    queue.pop_back();
    if (!graph_.vertex_alive(v) || required_[static_cast<std::size_t>(v)]) continue;
    if (graph_.degree(v) == 0) {
      graph_.remove_vertex(v);
    } else if (graph_.degree(v) == 1) {
      const auto e = graph_.incident_edges(v).front();
      const auto w = graph_.other_end(e, v);
      graph_.remove_edge(e);
      graph_.remove_vertex(v);
      queue.push_back(w);
    }
  }
  graph_.bridges(bridge_);
  initial_flags_ = graph_.alive_flags();
  initial_flags_.insert(initial_flags_.end(), bridge_.begin(), bridge_.end());
}

void RoutingGraph::reset() {
  graph_.restore_alive(initial_flags_);
  bridge_.assign(initial_flags_.end() - graph_.edge_count(),
                 initial_flags_.end());
  refresh_search_cache();
}

void RoutingGraph::refresh_search_cache() {
  if (path_engine_ != nullptr &&
      path_engine_->backend() == PathSearchBackend::kCached) {
    path_engine_->refresh_cache(graph_, driver_vertex_, terminal_vertices_,
                                &search_cache_);
  }
}

std::vector<std::int32_t> RoutingGraph::non_bridge_edges() const {
  std::vector<std::int32_t> out;
  for (std::int32_t e = 0; e < graph_.edge_count(); ++e) {
    if (graph_.edge_alive(e) && !bridge_[static_cast<std::size_t>(e)]) {
      out.push_back(e);
    }
  }
  return out;
}

bool RoutingGraph::is_tree() const {
  return graph_.alive_edge_count() == graph_.alive_vertex_count() - 1;
}

RoutingGraph::DeletionResult RoutingGraph::delete_edge(std::int32_t e,
                                                      bool refresh_cache) {
  BGR_CHECK(graph_.edge_alive(e));
  BGR_CHECK_MSG(!bridge_[static_cast<std::size_t>(e)], "cannot delete a bridge");
  DeletionResult result;
  const auto u = graph_.edge(e).u;
  const auto v = graph_.edge(e).v;
  graph_.remove_edge(e);
  result.removed_edges.push_back(e);

  // Prune dangling non-terminal branches starting from the endpoints. The
  // queue's storage is reused across deletions on this thread.
  thread_local std::vector<std::int32_t> queue;
  queue.assign({u, v});
  while (!queue.empty()) {
    const auto w = queue.back();
    queue.pop_back();
    if (!graph_.vertex_alive(w) || required_[static_cast<std::size_t>(w)]) continue;
    if (graph_.degree(w) == 0) {
      graph_.remove_vertex(w);
    } else if (graph_.degree(w) == 1) {
      const auto de = graph_.incident_edges(w).front();
      const auto next = graph_.other_end(de, w);
      graph_.remove_edge(de);
      graph_.remove_vertex(w);
      result.removed_edges.push_back(de);
      queue.push_back(next);
    }
  }

  graph_.update_bridges(bridge_, result.new_bridges);

  // The graph changed: rebuild (or drop) the no-skip reference search the
  // engine answers skip-edge queries against. delete_edge runs only at
  // serial commit points, so no scorer is reading the cache concurrently.
  if (refresh_cache) {
    refresh_search_cache();
  } else {
    search_cache_.valid = false;
  }
  return result;
}

double RoutingGraph::tentative_length_um(std::int32_t skip_edge) const {
  double total = 0.0;
  for (const auto e : tentative_tree_edges(skip_edge)) {
    total += edges_[static_cast<std::size_t>(e)].length_um;
  }
  return total;
}

double RoutingGraph::effective_length_um(std::int32_t e) const {
  const RouteEdgeInfo& info = edges_[static_cast<std::size_t>(e)];
  switch (info.kind) {
    case RouteEdgeKind::kTrunk:
      return info.length_um;
    case RouteEdgeKind::kFeed:
      return info.length_um + 2.0 * channel_depth_est_um_;
    case RouteEdgeKind::kTermLink:
      return info.length_um + channel_depth_est_um_;
  }
  return info.length_um;
}

double RoutingGraph::estimated_length_um(std::int32_t skip_edge) const {
  // In a tree each connected terminal uses exactly one terminal link, so
  // summing effective lengths reproduces the per-terminal tap allowance.
  double total = 0.0;
  for (const auto e : tentative_tree_edges(skip_edge)) {
    total += effective_length_um(e);
  }
  return total;
}

void RoutingGraph::set_path_search(PathSearchEngine* engine) {
  path_engine_ = engine;
  refresh_search_cache();
}

std::vector<std::int32_t> RoutingGraph::tentative_tree_edges(
    std::int32_t skip_edge) const {
  std::vector<std::int32_t> out;
  if (path_engine_ != nullptr) {
    path_engine_->tentative_tree(graph_, &search_cache_, driver_vertex_,
                                 terminal_vertices_, skip_edge, &out);
    return out;
  }
  // Standalone graphs (unit tests, diagnostics) never see an engine: run
  // the reference backend over a thread-local arena.
  static thread_local PathSearchScratch scratch;
  path_search_tree(graph_, driver_vertex_, terminal_vertices_, skip_edge,
                   scratch, &out);
  return out;
}

double RoutingGraph::alive_length_um() const {
  double total = 0.0;
  for (std::int32_t e = 0; e < graph_.edge_count(); ++e) {
    if (graph_.edge_alive(e)) {
      total += edges_[static_cast<std::size_t>(e)].length_um;
    }
  }
  return total;
}

std::vector<std::int32_t> RoutingGraph::alive_edges() const {
  std::vector<std::int32_t> out;
  for (std::int32_t e = 0; e < graph_.edge_count(); ++e) {
    if (graph_.edge_alive(e)) out.push_back(e);
  }
  return out;
}

}  // namespace bgr
