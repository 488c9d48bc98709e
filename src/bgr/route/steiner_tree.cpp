#include "bgr/route/steiner_tree.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "bgr/common/check.hpp"
#include "bgr/obs/metrics.hpp"

namespace bgr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Construction-effort counters. All value-driven, hence semantic: the
/// set of constructions the router runs and each construction's
/// pop/relax counts are a function of the design and the options alone
/// (a parallel re-key computes exactly the keys a serial one would).
struct SteinerMetrics {
  Counter& trees = MetricsRegistry::global().counter(
      "steiner.trees", MetricScope::kSemantic);
  Counter& sink_paths = MetricsRegistry::global().counter(
      "steiner.sink_paths", MetricScope::kSemantic);
  Counter& pops = MetricsRegistry::global().counter(
      "steiner.pops", MetricScope::kSemantic);
  Counter& relaxations = MetricsRegistry::global().counter(
      "steiner.relaxations", MetricScope::kSemantic);
  Counter& cache_hits = MetricsRegistry::global().counter(
      "steiner.cache_hits", MetricScope::kSemantic);
};

SteinerMetrics& steiner_metrics() {
  static SteinerMetrics* const m = new SteinerMetrics();
  return *m;
}

using HeapEntry = std::pair<double, std::int32_t>;  // (f, vertex)

void heap_push(std::vector<HeapEntry>& heap, double f, std::int32_t v) {
  heap.emplace_back(f, v);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

HeapEntry heap_pop(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const HeapEntry top = heap.back();
  heap.pop_back();
  return top;
}

/// Epoch-stamped arena for one construction: the growing tree (membership
/// + root distance, stamped per construction) and the per-sink search
/// labels (distance + parent edge, stamped per sink search). One instance
/// per thread; steady-state constructions allocate nothing.
class SteinerScratch {
 public:
  void begin(std::int32_t vertex_count) {
    const auto n = static_cast<std::size_t>(vertex_count);
    if (tree_epoch_.size() < n) {
      tree_epoch_.resize(n, 0);
      tree_dist_.resize(n, 0.0);
      label_epoch_.resize(n, 0);
      dist_.resize(n, 0.0);
      parent_.resize(n, SmallGraph::kNone);
    }
    ++call_epoch_;
    tree_vertices_.clear();
    heap_.clear();
  }

  void begin_search() {
    ++search_epoch_;
    heap_.clear();
  }

  [[nodiscard]] bool in_tree(std::int32_t v) const {
    return tree_epoch_[static_cast<std::size_t>(v)] == call_epoch_;
  }
  [[nodiscard]] double tree_dist(std::int32_t v) const {
    return tree_dist_[static_cast<std::size_t>(v)];
  }
  void add_to_tree(std::int32_t v, double root_dist) {
    const auto i = static_cast<std::size_t>(v);
    tree_epoch_[i] = call_epoch_;
    tree_dist_[i] = root_dist;
    tree_vertices_.push_back(v);
  }

  [[nodiscard]] double dist(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return label_epoch_[i] == search_epoch_ ? dist_[i] : kInf;
  }
  void set_dist(std::int32_t v, double d) {
    const auto i = static_cast<std::size_t>(v);
    if (label_epoch_[i] != search_epoch_) {
      label_epoch_[i] = search_epoch_;
      parent_[i] = SmallGraph::kNone;
    }
    dist_[i] = d;
  }
  [[nodiscard]] std::int32_t parent_edge(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return label_epoch_[i] == search_epoch_ ? parent_[i] : SmallGraph::kNone;
  }
  void set_parent_edge(std::int32_t v, std::int32_t e) {
    parent_[static_cast<std::size_t>(v)] = e;
  }

  [[nodiscard]] const std::vector<std::int32_t>& tree_vertices() const {
    return tree_vertices_;
  }
  [[nodiscard]] std::vector<HeapEntry>& heap() { return heap_; }
  [[nodiscard]] std::vector<std::int32_t>& path() { return path_; }

 private:
  std::uint64_t call_epoch_ = 0;
  std::uint64_t search_epoch_ = 0;
  std::vector<std::uint64_t> tree_epoch_;
  std::vector<double> tree_dist_;
  std::vector<std::uint64_t> label_epoch_;
  std::vector<double> dist_;
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> tree_vertices_;
  std::vector<HeapEntry> heap_;
  std::vector<std::int32_t> path_;
};

}  // namespace

void register_steiner_metrics() { (void)steiner_metrics(); }

void note_steiner_cache_hit() { steiner_metrics().cache_hits.add(1); }

SearchEffort steiner_tree_search(const SmallGraph& graph,
                                 const GoalHeuristic* heuristic,
                                 std::int32_t source,
                                 const std::vector<std::int32_t>& terminals,
                                 const std::vector<double>* sink_weights,
                                 std::int32_t skip_edge,
                                 std::vector<std::int32_t>* out) {
  SteinerMetrics& metrics = steiner_metrics();
  SearchEffort effort;
  static thread_local SteinerScratch scratch;
  scratch.begin(graph.vertex_count());
  out->clear();

  const auto h_of = [&](std::int32_t v) {
    return heuristic != nullptr ? heuristic->h[static_cast<std::size_t>(v)]
                                : 0.0;
  };

  // Decreasing-weight sink order, ties broken by terminal position — the
  // terminal list follows net_terminals creation order, which survives a
  // relabeling of the netlist (stable_sort keeps it for equal weights).
  struct Sink {
    std::int32_t vertex;
    double weight;
  };
  std::vector<Sink> sinks;
  sinks.reserve(terminals.size());
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    const std::int32_t tv = terminals[i];
    if (tv == source) continue;
    const double w = sink_weights != nullptr && i < sink_weights->size()
                         ? (*sink_weights)[i]
                         : 0.0;
    sinks.push_back(Sink{tv, w});
  }
  std::stable_sort(sinks.begin(), sinks.end(),
                   [](const Sink& a, const Sink& b) {
                     return a.weight > b.weight;
                   });

  scratch.add_to_tree(source, 0.0);
  std::int64_t sink_paths = 0;

  for (const Sink& s : sinks) {
    // A sink a previous path already passed through (zero-weight terminal
    // links make terminals cheap corridors) is connected for free.
    if (scratch.in_tree(s.vertex)) continue;
    ++sink_paths;
    scratch.begin_search();
    const double scale = 1.0 + s.weight;
    std::vector<HeapEntry>& heap = scratch.heap();

    // Multi-source seed: attaching via tree vertex v starts from the
    // objective delta it already owes, w_s · dist_T(root, v). A vertex
    // with h = inf cannot reach any terminal (admissibility), so it is
    // labeled but never expanded.
    for (const std::int32_t v : scratch.tree_vertices()) {
      scratch.set_dist(v, s.weight * scratch.tree_dist(v));
      const double hv = h_of(v);
      if (hv != kInf) {
        heap_push(heap, scratch.dist(v) + scale * hv, v);
        ++effort.queue_pushes;
      }
    }

    // Label-correcting A* on the delta objective. The popped f is the
    // heap minimum, so once it reaches the sink's label no unexplored
    // path can beat it: a cheaper path would keep a non-stale entry with
    // f below the optimum in the heap (h is admissible).
    while (!heap.empty()) {
      const auto [f, v] = heap_pop(heap);
      ++effort.pops;
      const double ds = scratch.dist(s.vertex);
      if (ds != kInf && f >= ds) break;
      const double d = scratch.dist(v);
      if (f != d + scale * h_of(v)) continue;  // stale (label improved)
      for (const std::int32_t e : graph.incident_edges(v)) {
        if (e == skip_edge) continue;
        const std::int32_t w = graph.other_end(e, v);
        const double nd = d + scale * graph.edge(e).weight;
        if (nd < scratch.dist(w)) {
          scratch.set_dist(w, nd);
          scratch.set_parent_edge(w, e);
          ++effort.relaxations;
          const double hw = h_of(w);
          if (hw != kInf) {
            heap_push(heap, nd + scale * hw, w);
            ++effort.queue_pushes;
          }
        }
      }
    }
    BGR_CHECK_MSG(scratch.dist(s.vertex) != kInf,
                  "sink unreachable in cost-distance tree");

    // Back-walk to the first tree vertex (everything before it is new, so
    // the attachment keeps T a tree), then attach front-to-back so the
    // root distances accumulate.
    std::vector<std::int32_t>& path = scratch.path();
    path.clear();
    std::int32_t v = s.vertex;
    while (!scratch.in_tree(v)) {
      const std::int32_t pe = scratch.parent_edge(v);
      BGR_CHECK_MSG(pe != SmallGraph::kNone,
                    "reachable sink has no parent chain");
      path.push_back(pe);
      v = graph.other_end(pe, v);
    }
    double at = scratch.tree_dist(v);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const std::int32_t e = *it;
      at += graph.edge(e).weight;
      v = graph.other_end(e, v);
      scratch.add_to_tree(v, at);
      out->push_back(e);
    }
  }

  metrics.trees.add(1);
  metrics.sink_paths.add(sink_paths);
  metrics.pops.add(effort.pops);
  metrics.relaxations.add(effort.relaxations);
  return effort;
}

}  // namespace bgr
