#pragma once

#include <vector>

#include "bgr/common/ids.hpp"
#include "bgr/common/interval.hpp"
#include "bgr/common/tech.hpp"
#include "bgr/graph/small_graph.hpp"
#include "bgr/layout/placement.hpp"
#include "bgr/netlist/netlist.hpp"
#include "bgr/route/assign.hpp"
#include "bgr/route/path_search.hpp"

namespace bgr {

enum class RouteVertexKind {
  kTerminal,  // circuit terminal (cell pin or pad)
  kPoint,     // physical point: (channel, column)
};

enum class RouteEdgeKind {
  kTermLink,  // terminal ↔ one of its candidate positions, zero weight
  kFeed,      // feedthrough crossing one cell row (vertical branch)
  kTrunk,     // horizontal in-channel segment
};

struct RouteVertexInfo {
  RouteVertexKind kind = RouteVertexKind::kPoint;
  TerminalId terminal;       // kTerminal only
  std::int32_t channel = -1; // kPoint only
  std::int32_t x = -1;       // kPoint only
};

struct RouteEdgeInfo {
  RouteEdgeKind kind = RouteEdgeKind::kTrunk;
  /// Trunk: its channel. TermLink: the channel of the position point.
  /// Feed: the *lower* adjacent channel (the edge crosses row == channel).
  std::int32_t channel = -1;
  IntInterval span;  // trunk: column extent; others: single column
  double length_um = 0.0;

  [[nodiscard]] bool is_trunk() const { return kind == RouteEdgeKind::kTrunk; }
};

/// The per-net candidate routing graph G_r(n) of Fig. 3. Vertices are
/// circuit terminals and physical points; edges are zero-weight
/// terminal-position links, feedthrough branch edges, and channel trunk
/// edges. The edge-deletion scheme removes non-bridge edges until the
/// graph is a Steiner tree over the terminals; dangling non-terminal
/// branches are pruned eagerly, so after pruning an edge is deletable iff
/// it lies on a cycle.
class RoutingGraph {
 public:
  /// Builds G_r(net). For the shadow member of a differential pair, pass
  /// the primary's assignment net via `ft_net` and `ft_offset` = +1: the
  /// shadow mirrors the primary one column to the right (§4.1).
  RoutingGraph(const Netlist& netlist, const Placement& placement,
               const TechParams& tech, const FeedthroughAssignment& assignment,
               NetId net, NetId ft_net, std::int32_t ft_offset);

  RoutingGraph(const Netlist& netlist, const Placement& placement,
               const TechParams& tech, const FeedthroughAssignment& assignment,
               NetId net)
      : RoutingGraph(netlist, placement, tech, assignment, net, net, 0) {}

  [[nodiscard]] NetId net() const { return net_; }
  [[nodiscard]] const SmallGraph& graph() const { return graph_; }
  [[nodiscard]] const RouteVertexInfo& vertex_info(std::int32_t v) const {
    return vertices_.at(static_cast<std::size_t>(v));
  }
  [[nodiscard]] const RouteEdgeInfo& edge_info(std::int32_t e) const {
    return edges_.at(static_cast<std::size_t>(e));
  }
  [[nodiscard]] const std::vector<std::int32_t>& terminal_vertices() const {
    return terminal_vertices_;
  }
  [[nodiscard]] std::int32_t driver_vertex() const { return driver_vertex_; }

  /// Attaches the router's shared path-search engine; all tentative-tree
  /// searches then run through it (arena scratch, backend choice, effort
  /// accounting). With the cached backend this also builds the graph's
  /// SearchCache. Graphs without an engine (standalone tests, tools) fall
  /// back to the reference Dijkstra backend over a thread-local scratch.
  void set_path_search(PathSearchEngine* engine);

  /// Returns the graph to its state right after construction: the alive
  /// flags and bridge flags snapshotted then, adjacency lists rebuilt in
  /// edge-id order (identical to a fresh build's), and — with an engine
  /// attached — the SearchCache rebuilt through it. Geometry, terminals
  /// and the engine attachment are kept. Equivalent to constructing the
  /// graph anew from the same (fixed) netlist, placement and assignment,
  /// without the point map, the pruning pass or the bridge search.
  void reset();

  /// The no-skip reference search of the attached engine (empty and
  /// invalid without one, or under the plain Dijkstra backend).
  [[nodiscard]] const SearchCache& search_cache() const {
    return search_cache_;
  }

  [[nodiscard]] bool is_bridge(std::int32_t e) const {
    return bridge_[static_cast<std::size_t>(e)];
  }
  /// Alive non-bridge (deletable) edges.
  [[nodiscard]] std::vector<std::int32_t> non_bridge_edges() const;
  [[nodiscard]] bool is_tree() const;

  struct RemovedEdge {
    std::int32_t edge;
    bool was_bridge;  // bridge status before this deletion (for d_m upkeep)
  };
  struct DeletionResult {
    std::vector<RemovedEdge> removed_edges;  // selected edge + pruned tail
    std::vector<std::int32_t> new_bridges;   // survivors that became bridges
  };

  /// Deletes a non-bridge edge, prunes any dangling non-terminal branches,
  /// and refreshes bridge flags. With `refresh_cache` false the
  /// SearchCache is only marked invalid — searches then run in full —
  /// until the next refresh_search_cache().
  DeletionResult delete_edge(std::int32_t e, bool refresh_cache = true);
  /// Rebuilds the SearchCache through the attached engine (no-op without
  /// one or under the plain Dijkstra backend).
  void refresh_search_cache();

  /// Total physical length of the tentative tree (union of shortest
  /// driver→terminal paths), optionally pretending `skip_edge` is deleted.
  [[nodiscard]] double tentative_length_um(std::int32_t skip_edge = -1) const;

  /// Tentative length plus the expected in-channel verticals: one
  /// channel-depth tap per terminal and two per feedthrough crossing in the
  /// tree. This is the capacitance-estimate length the delay criteria use;
  /// the channel stage later replaces the allowance with exact jogs.
  [[nodiscard]] double estimated_length_um(std::int32_t skip_edge = -1) const;

  /// Per-sink distributed-RC (Elmore) wire delays over the tentative tree,
  /// for the RC delay-model extension of §2.1. For each tree edge e with
  /// resistance r(e) and capacitance c(e) (π model: half of c(e) on each
  /// end), the delay of sink t is Σ_{e on driver→t path} r(e) ·
  /// (downstream wire cap + downstream sink loads). Loads are supplied per
  /// terminal via `load_pf`; `res_scale` divides the unit resistance
  /// (w-pitch wires have 1/w the resistance and w times the capacitance).
  struct ElmoreResult {
    double total_cap_pf = 0.0;  // wire + loads
    /// (sink terminal, wire Elmore delay ps); driver excluded.
    std::vector<std::pair<TerminalId, double>> sink_wire_ps;
  };
  template <typename LoadFn>
  [[nodiscard]] ElmoreResult elmore(const TechParams& tech, int pitch_width,
                                    LoadFn&& load_pf,
                                    std::int32_t skip_edge = -1) const;

  /// Edge length including the expected-vertical allowances (trunks:
  /// physical; feeds: + two channel depths; terminal links: one depth).
  [[nodiscard]] double effective_length_um(std::int32_t e) const;

  /// Edges of the tentative tree (for diagnostics and final extraction).
  [[nodiscard]] std::vector<std::int32_t> tentative_tree_edges(
      std::int32_t skip_edge = -1) const;

  /// Total length of all alive edges — equals the routed length once the
  /// graph is a tree.
  [[nodiscard]] double alive_length_um() const;

  /// Alive edge ids (for density registration).
  [[nodiscard]] std::vector<std::int32_t> alive_edges() const;

 private:
  void recompute_bridges();

  NetId net_;
  SmallGraph graph_;
  std::vector<RouteVertexInfo> vertices_;
  std::vector<RouteEdgeInfo> edges_;
  std::vector<std::int32_t> terminal_vertices_;
  std::int32_t driver_vertex_ = -1;
  std::vector<bool> bridge_;
  std::vector<bool> required_;  // vertex must stay (terminal)
  /// Construction-time flags restored by reset(), in one allocation:
  /// graph_.alive_flags() (vertices, then edges), then the bridge flags.
  std::vector<bool> initial_flags_;
  double channel_depth_est_um_ = 0.0;
  PathSearchEngine* path_engine_ = nullptr;  // not owned
  /// No-skip reference search over the current graph, rebuilt at the serial
  /// mutation points (set_path_search, delete_edge) and read lock-free by
  /// concurrent scorers; lets the cached engine answer most skip-edge queries
  /// by dependency-cone repair instead of a full search (see SearchCache).
  SearchCache search_cache_;
};

template <typename LoadFn>
RoutingGraph::ElmoreResult RoutingGraph::elmore(const TechParams& tech,
                                                int pitch_width,
                                                LoadFn&& load_pf,
                                                std::int32_t skip_edge) const {
  const auto tree = tentative_tree_edges(skip_edge);
  const auto n = static_cast<std::size_t>(graph_.vertex_count());

  // Tree adjacency and per-vertex node capacitance (π model: half of every
  // incident edge's wire capacitance, plus the terminal load).
  std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> adj(n);
  std::vector<double> node_cap(n, 0.0);
  for (const auto e : tree) {
    const auto& ed = graph_.edge(e);
    adj[static_cast<std::size_t>(ed.u)].emplace_back(e, ed.v);
    adj[static_cast<std::size_t>(ed.v)].emplace_back(e, ed.u);
    const double cap =
        tech.wire_cap_pf(effective_length_um(e), pitch_width) / 2.0;
    node_cap[static_cast<std::size_t>(ed.u)] += cap;
    node_cap[static_cast<std::size_t>(ed.v)] += cap;
  }
  for (const auto tv : terminal_vertices_) {
    node_cap[static_cast<std::size_t>(tv)] +=
        load_pf(vertex_info(tv).terminal);
  }

  // BFS order from the driver; subtree capacitances bottom-up; Elmore
  // delays top-down.
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> parent_edge(n, -1);
  std::vector<std::int32_t> parent(n, -1);
  std::vector<bool> seen(n, false);
  order.push_back(driver_vertex_);
  seen[static_cast<std::size_t>(driver_vertex_)] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto v = order[head];
    for (const auto& [e, w] : adj[static_cast<std::size_t>(v)]) {
      if (seen[static_cast<std::size_t>(w)]) continue;
      seen[static_cast<std::size_t>(w)] = true;
      parent[static_cast<std::size_t>(w)] = v;
      parent_edge[static_cast<std::size_t>(w)] = e;
      order.push_back(w);
    }
  }

  std::vector<double> subtree_cap = node_cap;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto v = *it;
    const auto p = parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      subtree_cap[static_cast<std::size_t>(p)] +=
          subtree_cap[static_cast<std::size_t>(v)];
    }
  }

  std::vector<double> delay(n, 0.0);
  ElmoreResult result;
  result.total_cap_pf = subtree_cap[static_cast<std::size_t>(driver_vertex_)];
  for (const auto v : order) {
    const auto pe = parent_edge[static_cast<std::size_t>(v)];
    if (pe >= 0) {
      const double res =
          tech.wire_res_ohm(effective_length_um(pe), pitch_width);
      // Ω · pF = ps.
      delay[static_cast<std::size_t>(v)] =
          delay[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])] +
          res * subtree_cap[static_cast<std::size_t>(v)];
    }
    const RouteVertexInfo& info = vertex_info(v);
    if (info.kind == RouteVertexKind::kTerminal && v != driver_vertex_) {
      result.sink_wire_ps.emplace_back(info.terminal,
                                       delay[static_cast<std::size_t>(v)]);
    }
  }
  return result;
}

}  // namespace bgr
