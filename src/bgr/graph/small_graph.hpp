#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "bgr/common/check.hpp"

namespace bgr {

/// Undirected multigraph sized for per-net routing graphs (tens to a few
/// hundred vertices). Vertices and edges carry alive flags so that edge
/// deletion — the core operation of the routing scheme — is O(degree), and
/// ids stay stable for external annotation arrays.
///
/// All algorithms (bridges, Dijkstra, connectivity) operate on the alive
/// subgraph only.
class SmallGraph {
 public:
  static constexpr std::int32_t kNone = -1;

  struct Edge {
    std::int32_t u = kNone;
    std::int32_t v = kNone;
    double weight = 0.0;
    bool alive = false;
  };

  [[nodiscard]] std::int32_t add_vertex();
  /// Adds an alive edge between two alive vertices; returns its id.
  [[nodiscard]] std::int32_t add_edge(std::int32_t u, std::int32_t v,
                                      double weight);

  void remove_edge(std::int32_t e);
  /// Removes a vertex; all incident edges must already be removed.
  void remove_vertex(std::int32_t v);

  /// Alive flags of every vertex, then of every edge, by id.
  [[nodiscard]] std::vector<bool> alive_flags() const;
  /// Restores the alive flags from a snapshot that starts with this
  /// graph's alive_flags() (entries past them are the caller's and are
  /// ignored) and rebuilds each adjacency list from the alive edges in
  /// edge-id order. add_edge appends in id order and remove_edge erases
  /// in place, so a graph restored to the flags it had after some
  /// removals has exactly the adjacency lists it had then.
  void restore_alive(const std::vector<bool>& flags);

  [[nodiscard]] std::int32_t vertex_count() const {
    return static_cast<std::int32_t>(vertex_alive_.size());
  }
  [[nodiscard]] std::int32_t edge_count() const {
    return static_cast<std::int32_t>(edges_.size());
  }
  [[nodiscard]] std::int32_t alive_vertex_count() const { return alive_vertices_; }
  [[nodiscard]] std::int32_t alive_edge_count() const { return alive_edges_; }

  [[nodiscard]] bool vertex_alive(std::int32_t v) const {
    return vertex_alive_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool edge_alive(std::int32_t e) const {
    return edges_[static_cast<std::size_t>(e)].alive;
  }
  [[nodiscard]] const Edge& edge(std::int32_t e) const {
    return edges_[static_cast<std::size_t>(e)];
  }
  void set_edge_weight(std::int32_t e, double w) {
    edges_[static_cast<std::size_t>(e)].weight = w;
  }
  [[nodiscard]] std::int32_t other_end(std::int32_t e, std::int32_t v) const {
    const Edge& ed = edge(e);
    return ed.u == v ? ed.v : ed.u;
  }

  [[nodiscard]] std::int32_t degree(std::int32_t v) const {
    return static_cast<std::int32_t>(adjacency_[static_cast<std::size_t>(v)].size());
  }
  /// Alive incident edge ids of an alive vertex.
  [[nodiscard]] const std::vector<std::int32_t>& incident_edges(
      std::int32_t v) const {
    return adjacency_[static_cast<std::size_t>(v)];
  }

  /// True if every vertex in `required` (alive) lies in one connected
  /// component of the alive subgraph.
  [[nodiscard]] bool connects(const std::vector<std::int32_t>& required) const;

  /// Fills `out` with the bridge (cut-edge) flags of all alive edges of
  /// the alive subgraph, indexed by edge id. Parallel edges are correctly
  /// non-bridges. Dead edges report false. The DFS scratch is
  /// thread-local and reused: a call allocates only when its thread has
  /// not yet met a graph this large.
  void bridges(std::vector<bool>& out) const;
  /// Refreshes `flags`, the bridge flags of this graph before some edge
  /// removals, to its current ones, and appends to `new_bridges` (in id
  /// order) every alive edge that is a bridge now and was not before.
  /// Allocation-free like bridges(): the fresh flags are computed into
  /// thread-local scratch and copied over `flags`.
  void update_bridges(std::vector<bool>& flags,
                      std::vector<std::int32_t>& new_bridges) const;

  struct ShortestPaths {
    std::vector<double> dist;          // +inf if unreachable / dead vertex
    std::vector<std::int32_t> parent_edge;  // kNone at source / unreachable
  };

  /// Dijkstra over the alive subgraph from `source`. `skip_edge` (if >= 0)
  /// is treated as deleted — used for "tentative tree assuming deletion of
  /// e" evaluations without mutating the graph.
  [[nodiscard]] ShortestPaths dijkstra(std::int32_t source,
                                       std::int32_t skip_edge = kNone) const;

  /// Vertex ids of the alive component containing `start`.
  [[nodiscard]] std::vector<std::int32_t> component_of(std::int32_t start) const;

 private:
  std::vector<bool> vertex_alive_;
  std::vector<std::vector<std::int32_t>> adjacency_;
  std::vector<Edge> edges_;
  std::int32_t alive_vertices_ = 0;
  std::int32_t alive_edges_ = 0;
};

/// Disjoint-set union with path compression and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::int32_t>(i);
  }

  [[nodiscard]] std::int32_t find(std::int32_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  /// Returns true if the two elements were in different sets.
  bool unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[static_cast<std::size_t>(a)] < size_[static_cast<std::size_t>(b)])
      std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
    return true;
  }

  [[nodiscard]] bool same(std::int32_t a, std::int32_t b) {
    return find(a) == find(b);
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> size_;
};

}  // namespace bgr
