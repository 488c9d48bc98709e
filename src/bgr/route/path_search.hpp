#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "bgr/graph/small_graph.hpp"

namespace bgr {

class ExecContext;

/// Backend of the tentative-tree path search (see DESIGN.md §11).
///
/// kDijkstra is the reference: the same binary-heap label-setting search
/// the router has always run, settling the whole alive component.
/// kAstar is goal-oriented: an admissible future-cost lower bound steers
/// the search toward the net's terminals through a monotone bucket (dial)
/// queue, settling only the corridor around the shortest-path tree. Both
/// backends reach the identical distance fixpoint on every vertex they
/// both settle, and the tree is derived from distances alone (see
/// derive_tree), so the resulting tentative trees — and therefore every
/// score, every deletion and the final RouteOutcome — are bit-identical.
/// kSteiner is the cost-distance tree construction (DESIGN.md §16): it
/// greedily merges sink paths under cost(T) + Σ_s w_s · dist_T(root, s)
/// with per-sink weights derived from constraint slack. It is the one
/// backend *allowed* to produce different trees than the reference — its
/// correctness contract is "deterministic, verifier-clean and
/// margin-dominant", enforced by the test_steiner oracle battery rather
/// than bit-identity with Dijkstra.
enum class PathSearchBackend { kDijkstra, kAstar, kSteiner };

/// Canonical CLI/serve/report spelling of a backend.
[[nodiscard]] const char* path_search_backend_name(PathSearchBackend backend);

/// Per-net goal-oriented lower bound: h[v] = exact shortest distance from
/// v to the nearest non-driver terminal, computed once per routing graph
/// by a multi-source Dijkstra over the freshly built (full) graph, then
/// shaved by a relative epsilon. Edge deletion only lengthens distances,
/// so the build-time bound stays admissible for every later search and
/// every `skip_edge` evaluation; the shave absorbs the ULP-level
/// discrepancy between the backward summation order used here and the
/// forward order of the live search (DESIGN.md §11 quantifies it).
struct GoalHeuristic {
  std::vector<double> h;  // per vertex; 0 at targets, +inf if disconnected
  /// Bucket width of the dial queue for this graph: max(smallest positive
  /// edge weight, total edge weight / 4096) — coarse enough to bound the
  /// bucket count, fine enough that a bucket never spans more than one
  /// "interesting" cost step (see BucketQueue).
  double quantum = 1.0;
};

/// Builds the lower bound for searches from `source` (the net's driver)
/// toward `targets` (all terminal vertices; the source entry is skipped).
[[nodiscard]] GoalHeuristic build_goal_heuristic(
    const SmallGraph& graph, std::int32_t source,
    const std::vector<std::int32_t>& targets);

/// The dial-queue bucket width for a graph: max(smallest positive alive
/// edge weight, total alive weight / 4096). Shared by every heuristic
/// source (the exact per-graph build and the chip-level lookahead
/// derivation), so the backend quantizes identically whichever produced
/// the bound.
[[nodiscard]] double heuristic_quantum(const SmallGraph& graph);

/// Monotone bucket ("dial") queue over quantized non-negative costs.
/// Entries carry their exact float key owner-side; the queue only orders
/// the integer buckets, so within one bucket order is LIFO. Pushes below
/// the cursor clamp to the cursor bucket — together with the caller's
/// stale-entry test this makes the search label-correcting, which is what
/// lets an (admissible, not necessarily consistent-after-quantization)
/// bound stay exact. Storage is a wraparound ring sized to the largest
/// key span seen, grown on demand, so memory is bounded by the quantized
/// maximum edge weight rather than the path length.
class BucketQueue {
 public:
  struct Entry {
    std::int32_t vertex = -1;
    double g = 0.0;        // exact path cost at push time (stale test key)
    std::int64_t key = 0;  // bucket key, kept so grow() can rehash the ring
  };

  /// Clears the queue and sets the bucket width for the coming search.
  void reset(double quantum);

  /// Monotone quantization of an exact cost into a bucket key.
  [[nodiscard]] std::int64_t key_for(double cost) const;

  /// Enqueues (vertex, g) into bucket max(key, cursor).
  void push(std::int64_t key, std::int32_t vertex, double g);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::int64_t size() const { return size_; }

  /// Key of the next non-empty bucket (advances the cursor to it).
  /// Requires !empty().
  [[nodiscard]] std::int64_t current_key();

  /// Pops one entry from the current bucket. Requires !empty().
  [[nodiscard]] Entry pop();

  /// Lifetime totals since reset(), for the effort metrics.
  [[nodiscard]] std::int64_t pushes() const { return pushes_; }
  [[nodiscard]] std::int64_t buckets_touched() const { return touched_; }
  [[nodiscard]] std::int64_t ring_size() const {
    return static_cast<std::int64_t>(ring_.size());
  }

 private:
  void grow(std::int64_t needed_span);
  [[nodiscard]] std::vector<Entry>& bucket(std::int64_t key) {
    return ring_[static_cast<std::size_t>(key) & (ring_.size() - 1)];
  }

  std::vector<std::vector<Entry>> ring_;  // size is a power of two
  std::vector<std::int64_t> dirty_;       // ring slots to clear on reset()
  double quantum_ = 1.0;
  std::int64_t cursor_ = 0;  // all live keys are in [cursor_, cursor_+span)
  bool started_ = false;     // cursor_ is meaningless until the first push
  std::int64_t size_ = 0;
  std::int64_t pushes_ = 0;
  std::int64_t touched_ = 0;
};

/// Arena-reused per-search state: epoch-stamped distance labels, the
/// canonical parent tree, tree-walk edge marks, and the queue storage
/// (bucket ring or binary heap). One instance serves one thread; begin()
/// bumps the epoch instead of reallocating, so steady-state searches do
/// no allocation at all.
class PathSearchScratch {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Prepares for one search over a graph of the given size. Returns true
  /// when the arena was reused as-is (no growth).
  bool begin(std::int32_t vertex_count, std::int32_t edge_count);

  [[nodiscard]] double dist(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return vertex_epoch_[i] == epoch_ ? dist_[i] : kInf;
  }
  void set_dist(std::int32_t v, double d) {
    const auto i = static_cast<std::size_t>(v);
    vertex_epoch_[i] = epoch_;
    dist_[i] = d;
  }

  [[nodiscard]] std::int32_t parent_edge(std::int32_t v) const {
    const auto i = static_cast<std::size_t>(v);
    return parent_epoch_[i] == epoch_ ? parent_[i] : SmallGraph::kNone;
  }
  void set_parent_edge(std::int32_t v, std::int32_t e) {
    const auto i = static_cast<std::size_t>(v);
    parent_epoch_[i] = epoch_;
    parent_[i] = e;
  }

  [[nodiscard]] bool edge_marked(std::int32_t e) const {
    const auto i = static_cast<std::size_t>(e);
    return edge_epoch_[i] == epoch_;
  }
  void mark_edge(std::int32_t e) {
    edge_epoch_[static_cast<std::size_t>(e)] = epoch_;
  }

  /// Goal flags for the A* termination test (stamped like the labels).
  [[nodiscard]] bool is_target(std::int32_t v) const {
    return target_epoch_[static_cast<std::size_t>(v)] == epoch_;
  }
  void mark_target(std::int32_t v) {
    target_epoch_[static_cast<std::size_t>(v)] = epoch_;
  }

  [[nodiscard]] BucketQueue& buckets() { return buckets_; }
  /// Binary-heap storage for the Dijkstra backend and the tree derivation.
  [[nodiscard]] std::vector<std::pair<double, std::int32_t>>& heap() {
    return heap_;
  }
  /// Reused vertex list (the engine's cone repair); cleared by the user.
  [[nodiscard]] std::vector<std::int32_t>& vertex_list() { return list_; }

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> vertex_epoch_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_epoch_;
  std::vector<std::int32_t> parent_;
  std::vector<std::uint32_t> edge_epoch_;
  std::vector<std::uint32_t> target_epoch_;
  BucketQueue buckets_;
  std::vector<std::pair<double, std::int32_t>> heap_;
  std::vector<std::int32_t> list_;
};

/// Effort of one search, returned to the caller (the engine folds it into
/// its phase-visible totals and the obs counters).
struct SearchEffort {
  std::int64_t pops = 0;         // queue extractions, stale included
  std::int64_t relaxations = 0;  // successful distance improvements
  std::int64_t buckets_touched = 0;  // A* only
  std::int64_t queue_pushes = 0;
};

/// Runs one search from `source` and emits the tentative-tree edges (the
/// union of canonical shortest source→terminal paths) into `out`, walking
/// `terminals` in order. `skip_edge` >= 0 is treated as deleted. The
/// heuristic may be null (forced for the Dijkstra backend); with a
/// heuristic the A* search stops once every terminal's bucket has
/// provably drained (DESIGN.md §11 gives the argument for why the tree
/// region then carries final distances).
SearchEffort path_search_tree(const SmallGraph& graph,
                              PathSearchBackend backend,
                              const GoalHeuristic* heuristic,
                              std::int32_t source,
                              const std::vector<std::int32_t>& terminals,
                              std::int32_t skip_edge,
                              PathSearchScratch& scratch,
                              std::vector<std::int32_t>* out);

/// Cached no-skip reference search over one routing graph, rebuilt at the
/// serial mutation points (graph build, committed edge deletion) and read
/// concurrently by parallel key re-computes. The scoring loop asks for
/// the tentative tree under dozens of hypothetical single-edge deletions of
/// the *same* graph; the cache answers most of them without a search:
///
///   - `dist` is canonical: every label is a min over single additions
///     dist[x] + w, and equal doubles are identical bits, so any correct
///     label-setting search produces these exact bits — which is what
///     makes "reuse the unaffected labels" a bitwise statement.
///   - `seq` records the reference settle order. An edge (x -> v) with
///     dist[x] + w == dist[v] and seq[x] < seq[v] is a *contributing*
///     predecessor; a vertex all of whose contributing predecessors pass
///     through the skipped edge (directly or transitively) forms the
///     dependency cone — the only labels a skip can change. Everything
///     else keeps its label bit for bit, so only the cone is re-searched
///     (see PathSearchEngine::tentative_tree and DESIGN.md §11).
///   - `tree`/`in_tree` short-circuit the common case: an empty cone and
///     a skip edge outside the canonical tree cannot change the output.
struct SearchCache {
  bool valid = false;
  std::vector<double> dist;                // per vertex; kInf if unsettled
  std::vector<std::int32_t> seq;           // settle index; -1 if unsettled
  std::vector<std::int32_t> settle_order;  // vertices, source first
  std::vector<std::int32_t> tree;          // canonical no-skip tree edges
  std::vector<char> in_tree;               // per edge id
};

/// Search-effort totals the router snapshots per phase. Value-driven, so
/// deterministic across thread counts (a parallel re-key computes exactly
/// the keys a serial one would, hence the same searches run).
struct PathSearchStats {
  std::int64_t searches = 0;
  std::int64_t pops = 0;
  std::int64_t relaxations = 0;
};

/// Pluggable path-search engine shared by one router: the backend choice,
/// one scratch arena per exec slot (indexed by ExecContext::current_slot,
/// so concurrent re-key searches never share state), and the
/// running effort totals. RoutingGraphs get a pointer via
/// set_path_search(); graphs without an engine fall back to a private
/// Dijkstra scratch, preserving the historical standalone behavior.
class PathSearchEngine {
 public:
  /// `exec` may be null (slot 0 only — fine for single-threaded use).
  PathSearchEngine(PathSearchBackend backend, const ExecContext* exec);
  ~PathSearchEngine();

  PathSearchEngine(const PathSearchEngine&) = delete;
  PathSearchEngine& operator=(const PathSearchEngine&) = delete;

  [[nodiscard]] PathSearchBackend backend() const { return backend_; }

  /// Rebuilds a graph's search cache with one full reference search (seq
  /// recording included) plus the canonical tree. Must be called from the
  /// graph's serial mutation points only — the cache is read lock-free by
  /// concurrent scorers. The build's pops/relaxations fold into the effort
  /// totals, but it is not counted as a search: `searches` stays the query
  /// count, identical across backends. The Steiner backend memoizes its
  /// no-skip tree instead (built with exactly the live query
  /// configuration: same heuristic, same sink weights), leaving
  /// dist/seq/settle_order empty — cone repair is unsound for it, so
  /// skip-edge queries always run a full construction.
  void refresh_cache(const SmallGraph& graph, std::int32_t source,
                     const std::vector<std::int32_t>& terminals,
                     SearchCache* cache,
                     const GoalHeuristic* heuristic = nullptr,
                     const std::vector<double>* sink_weights = nullptr);

  /// Runs one tentative-tree search using the calling thread's scratch.
  /// `heuristic` is ignored by the Dijkstra backend and may be null for
  /// A* (which then degrades to h = 0, plain Dijkstra in a dial queue) and
  /// for Steiner (full searches, no pruning). `cache` may be null; a valid
  /// cache lets the goal-oriented backend answer the query from the cached
  /// labels (cone repair) instead of a full search — bit-identically, see
  /// SearchCache — and lets the Steiner backend return its memoized
  /// no-skip tree. The reference backend never consults it.
  /// `sink_weights` (Steiner only) aligns index-for-index with
  /// `terminals`; null or empty means w = 0 everywhere (pure length
  /// minimization).
  void tentative_tree(const SmallGraph& graph, const GoalHeuristic* heuristic,
                      const SearchCache* cache, std::int32_t source,
                      const std::vector<std::int32_t>& terminals,
                      std::int32_t skip_edge,
                      std::vector<std::int32_t>* out,
                      const std::vector<double>* sink_weights = nullptr);

  [[nodiscard]] PathSearchStats stats() const;

 private:
  PathSearchBackend backend_;
  const ExecContext* exec_;
  std::vector<std::unique_ptr<PathSearchScratch>> scratch_;  // one per slot
  std::atomic<std::int64_t> searches_{0};
  std::atomic<std::int64_t> pops_{0};
  std::atomic<std::int64_t> relaxations_{0};
};

}  // namespace bgr
