#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bgr/common/ids.hpp"
#include "bgr/common/tech.hpp"
#include "bgr/exec/exec_context.hpp"
#include "bgr/layout/placement.hpp"
#include "bgr/netlist/netlist.hpp"
#include "bgr/route/assign.hpp"
#include "bgr/route/criteria.hpp"
#include "bgr/route/density.hpp"
#include "bgr/route/routing_graph.hpp"
#include "bgr/route/shard.hpp"
#include "bgr/timing/analyzer.hpp"
#include "bgr/timing/delay_graph.hpp"

namespace bgr {

/// Interconnect delay model (§2.1). The paper uses the capacitance model;
/// the RC (Elmore) extension adds the distributed-wire term per sink.
enum class DelayModel {
  kLumpedC,
  kElmoreRC,
};

struct RouterOptions {
  /// False reproduces the unconstrained (pure area-driven) baseline of
  /// Table 2: the constraint set is dropped and all delay criteria vanish.
  bool use_constraints = true;
  DelayModel delay_model = DelayModel::kLumpedC;
  /// Prior-art mode (Huang et al., DAC'93, which the paper contrasts):
  /// before routing, each constraint's margin is distributed to its nets
  /// as fixed per-net delay budgets, and the delay criteria then compare
  /// each net against its own budget instead of the live path margins.
  /// The paper's argument is that "the timing constraints are indeed
  /// given as the critical path constraints" — budgets over- or
  /// under-constrain individual nets.
  bool use_net_budgets = false;
  /// The paper's initial routing deletes edges *concurrently* across all
  /// nets (§3.1: "the interconnection wiring of all nets is determined
  /// concurrently"). Setting this false reproduces the conventional
  /// sequential baseline the paper contrasts: nets are reduced to trees
  /// one at a time in slack order, each seeing only the earlier nets'
  /// decisions.
  bool concurrent_initial = true;
  /// Sharded concurrent deletion (DESIGN.md §13): partition the nets into
  /// interaction-disjoint shards (connected components of the channel- and
  /// constraint-sharing graph) and run each shard's greedy deletion loop on
  /// its own worker, then replay the commits in the canonical merged order.
  /// Because cross-shard state is disjoint, the merged sequence — and hence
  /// the RouteOutcome — is bit-identical to the unsharded serial greedy at
  /// any thread count. Designs that form a single interaction component
  /// fall back to the unsharded loop automatically. Only the concurrent
  /// initial-routing phase shards; `false` keeps the global scan loop.
  bool shard_deletion = true;
  /// Improvement phases (§3.5).
  bool enable_violation_recovery = true;
  bool enable_delay_improvement = true;
  bool enable_area_improvement = true;
  /// Ablations of the §3.4 selection tiers.
  bool use_delay_criteria = true;
  bool use_density_criteria = true;
  /// Maximum rip-up/re-route sweeps per improvement phase.
  std::int32_t improvement_passes = 2;
  /// Incremental STA: after every net-estimate change, re-relax only the
  /// dirty cone of the net's wiring arcs instead of re-sweeping every
  /// touched constraint graph. Arrival times, margins, slacks — and hence
  /// the RouteOutcome — are bit-identical either way; `false` keeps the
  /// full re-sweeps of the original implementation.
  bool incremental_sta = true;
  /// Tentative-tree path search backend (DESIGN.md §11): the reference
  /// Dijkstra plus SearchCache cone repair (default) or the reference
  /// binary-heap Dijkstra alone. The cone repair reproduces the reference
  /// labels bit for bit and the tree is derived from distances alone, so
  /// the RouteOutcome is bit-identical either way — the cache just
  /// re-searches only the skipped edge's dependency cone per candidate
  /// evaluation. The third backend, kSteiner, builds cost-distance trees
  /// (DESIGN.md §16) and is *allowed* to produce a different RouteOutcome:
  /// its contract is deterministic, verifier-clean and margin-dominant vs
  /// the Dijkstra baseline, enforced by the test_steiner oracle battery.
  PathSearchBackend path_search = PathSearchBackend::kCached;
  /// Test hook: called for every committed edge deletion (differential
  /// pairs fire once, for the primary), in the canonical serial commit
  /// order. When the sharded loop is active the calls are replayed after
  /// its workers join — the sequence is identical to the serial loop's,
  /// but the router state seen by the callback is the post-phase state.
  /// Used by the differential tests to compare deletion sequences; leave
  /// empty in production use.
  std::function<void(NetId, std::int32_t)> deletion_observer;
  /// Worker threads for the exec/ subsystem: per-net routing-graph
  /// construction, candidate-edge criteria scoring, and the levelized STA
  /// sweeps. 1 (the default) is the strict serial path; any N produces a
  /// bit-identical RouteOutcome (see DESIGN.md, "Execution model &
  /// determinism"). 0 means hardware concurrency.
  std::int32_t threads = 1;
  /// Co-tenancy (DESIGN.md §12): when set, the router's parallel regions
  /// run on this externally owned pool (plus the calling thread) instead
  /// of a private one, and `threads` is ignored. Many routers may share
  /// one pool concurrently; each still produces the RouteOutcome it would
  /// produce alone, because chunk partitioning and reduction order never
  /// depend on which threads execute the chunks. The pool must outlive
  /// the router.
  ThreadPool* shared_pool = nullptr;
  /// Cooperative cancellation: polled at every pipeline phase boundary
  /// inside run(). A true return makes run() throw CancelledError at that
  /// boundary, leaving the router in the kRunning (poisoned) state; the
  /// netlist may already carry inserted feed cells, so a cancelled run's
  /// inputs should be discarded, not reused. Leave empty when not
  /// serving.
  std::function<bool()> cancel_requested;
};

/// Per-phase record for the Fig. 2 pipeline report.
struct PhaseStats {
  std::string name;
  std::int64_t deletions = 0;
  std::int64_t reroutes = 0;
  double worst_margin_ps = 0.0;
  double critical_delay_ps = 0.0;
  std::int64_t sum_max_density = 0;
  double seconds = 0.0;
  /// exec/ activity inside the phase (0 when running serially).
  std::int64_t exec_regions = 0;
  std::int64_t exec_chunks = 0;
  /// Timing-engine activity inside the phase: dirty-cone propagations run,
  /// total dirty-cone size (vertices re-relaxed incrementally), and total
  /// vertex relaxations including full sweeps. All deterministic — they
  /// depend on values, never on thread count or wall time.
  std::int64_t sta_updates = 0;
  std::int64_t sta_dirty_vertices = 0;
  std::int64_t sta_relaxations = 0;
  /// Path-search activity inside the phase: tentative-tree searches run,
  /// queue pops and successful relaxations. Value-driven (the same
  /// searches run at any thread count), hence deterministic.
  std::int64_t path_searches = 0;
  std::int64_t path_pops = 0;
  std::int64_t path_relaxations = 0;
};

struct RouteOutcome {
  double critical_delay_ps = 0.0;  // chip-level, from estimated tree lengths
  double total_length_um = 0.0;
  std::int32_t violated_constraints = 0;
  double worst_margin_ps = 0.0;
  std::int32_t feed_cells_added = 0;
  std::int32_t widen_pitches = 0;
  std::vector<PhaseStats> phases;
};

/// The paper's global router (Fig. 2): external-pin & feedthrough
/// assignment with feed-cell insertion, concurrent edge-deletion initial
/// routing under the §3.4 heuristics, and the three rip-up/re-route
/// improvement phases of §3.5. Differential pairs are deleted in lock-step
/// (§4.1); multi-pitch nets contribute width-scaled density and
/// capacitance (§4.2).
class GlobalRouter {
 public:
  GlobalRouter(Netlist& netlist, Placement placement, TechParams tech,
               std::vector<PathConstraint> constraints, RouterOptions options);
  ~GlobalRouter();

  GlobalRouter(const GlobalRouter&) = delete;
  GlobalRouter& operator=(const GlobalRouter&) = delete;

  /// Lifecycle of the single-shot pipeline. kIdle → kRunning on entry to
  /// run(); kRunning → kDone on success. A run that threw (cancellation
  /// included) stays kRunning — the half-routed state is not reusable.
  enum class RunState { kIdle, kRunning, kDone };

  /// Runs the full pipeline. Single-shot by design (the router consumes
  /// its netlist: feed cells are inserted, estimates annotated); calling
  /// it again — or after a failed/cancelled run — throws CheckError with
  /// a clear diagnostic instead of silently re-routing corrupt state.
  /// Services that need a re-runnable pipeline wrap a fresh router per
  /// attempt; see serve::RoutingSession.
  RouteOutcome run();

  [[nodiscard]] RunState run_state() const { return run_state_; }

  /// Back-annotation refinement (extension): after the channel stage has
  /// measured real per-net lengths, feed the per-net estimate corrections
  /// (detailed − estimated, um) back and re-run the §3.5 improvement
  /// loops under the corrected delays. Callable after run(), repeatably.
  RouteOutcome refine(const IdVector<NetId, double>& extra_um);

  /// ECO-style re-route: rips up and re-routes the given nets in the
  /// current state (same feedthrough assignment, live densities and
  /// timing). Differential shadows follow their primaries automatically.
  /// Callable after run(), repeatably.
  RouteOutcome reroute(const std::vector<NetId>& nets);

  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] const TechParams& tech() const { return tech_; }
  [[nodiscard]] const RouterOptions& options() const { return options_; }
  [[nodiscard]] const DensityMap& density() const { return *density_; }
  [[nodiscard]] const TimingAnalyzer& analyzer() const { return *analyzer_; }
  [[nodiscard]] DelayGraph& delay_graph() { return *delay_graph_; }
  [[nodiscard]] const RoutingGraph& net_graph(NetId net) const;
  [[nodiscard]] const FeedthroughAssignment& assignment() const {
    return *assignment_;
  }
  /// Routed (tree) length of a net after run(), um.
  [[nodiscard]] double net_length_um(NetId net) const;

  /// Interaction-disjoint shard decomposition the initial-routing phase
  /// used (empty when sharding was disabled or the phase ran sequentially).
  /// Exposed for the shard property tests and the scale bench's
  /// work-balance gates.
  [[nodiscard]] const ShardDecomposition& shard_decomposition() const {
    return shards_;
  }

 private:
  struct Candidate {
    NetId net;
    std::int32_t edge;
  };

  void build_all_graphs();
  /// Uniform per-sink weight vector for one net's steiner constructions
  /// (empty unless the steiner backend is active), sized to the graph's
  /// terminal list from net_sink_weight_.
  [[nodiscard]] std::vector<double> sink_weights_for(NetId net) const;
  void register_graph_density(NetId net);
  void unregister_graph_density(NetId net);
  void refresh_net_estimate(NetId net,
                            TimingAnalyzer::UpdateSlot* slot = nullptr);
  [[nodiscard]] std::int32_t net_density_width(NetId net) const;
  /// The two halves of a candidate's SelectionKey, cached and invalidated
  /// separately by the selection loop. The density half (F_m, N_m, F_M,
  /// N_M) reads only the density charts of the edge's channel(s): the
  /// channel aggregates and the chart maxima over the edge's span. The
  /// delay half (C_d, Gl, LD: path search + STA evaluation) reads only the
  /// member nets' graphs and estimates and their constraints' timing state.
  void fill_density_half(const RouteEdgeInfo& info, SelectionKey& key) const;
  void fill_delay_half(NetId net, std::int32_t edge, SelectionKey& key) const;
  /// Whether the delay half of `net`'s candidates can be nonzero at all.
  [[nodiscard]] bool delay_half_active(NetId net) const;
  /// Density-chart interval one commit changed (removed trunk edge, pruned
  /// tail or re-flagged bridge), for the selection loop's re-key.
  struct DensityChange {
    std::int32_t channel;
    IntInterval span;
  };
  /// State mutation of one committed deletion (graph surgery + density +
  /// estimate/STA refresh). Shard workers pass a per-worker timing slot.
  /// Every density interval it touches is appended to `changes`.
  void apply_delete(NetId net, std::int32_t edge,
                    TimingAnalyzer::UpdateSlot* slot,
                    std::vector<DensityChange>& changes);
  /// Caller-thread bookkeeping of one commit: stats, metrics, observer.
  void record_commit(NetId net, std::int32_t edge, PhaseStats& stats);
  /// Local effort tallies of one selection loop, folded into the shared
  /// metrics once per loop (shard workers: after the join).
  struct SelectionTally {
    std::int64_t scans = 0;        // live candidates summed over rounds
    std::int64_t misses = 0;       // key halves recomputed
    std::int64_t hits = 0;         // key halves served from cache
    std::int64_t delay_evals = 0;  // delay halves recomputed
  };
  static void fold_tally(const SelectionTally& tally);
  using CommitFn =
      std::function<void(NetId, std::int32_t, const SelectionKey&)>;
  /// The §3.4 greedy deletion loop — the one selection routine behind the
  /// global loop, the shard workers and reduce_net_to_tree. Repeatedly
  /// commits the candidate with the smallest key (SelectionIndex order)
  /// until none is deletable, re-keying after each commit only the
  /// candidates whose inputs moved (DESIGN.md §5). `on_commit` runs after
  /// each commit with the key the edge was selected under. Shard workers
  /// pass their timing slot; the caller thread passes null.
  SelectionTally select_and_delete(const std::vector<Candidate>& candidates,
                                   TimingAnalyzer::UpdateSlot* slot,
                                   const CommitFn& on_commit);
  /// Sharded §3.4 deletion loop (DESIGN.md §13). Returns false when the
  /// decomposition degenerates to a single shard — the caller then runs
  /// the classic global loop instead.
  bool run_sharded_deletion(const std::vector<Candidate>& candidates,
                            PhaseStats& stats);
  void delete_in_graph(NetId net, std::int32_t edge,
                       std::vector<DensityChange>& changes);
  /// Deletes edges of one net until its graph is a tree (local loop used by
  /// rip-up/re-route).
  void reduce_net_to_tree(NetId net, PhaseStats& stats);
  void initial_routing(PhaseStats& stats);
  void reroute_net(NetId net, PhaseStats& stats);
  void recover_violations(PhaseStats& stats);
  void improve_delay(PhaseStats& stats);
  void improve_area(PhaseStats& stats);
  void finish_phase(PhaseStats& stats);
  [[nodiscard]] NetId primary_of(NetId net) const;
  [[nodiscard]] bool timing_active_for(NetId net) const;
  void compute_net_budgets();
  [[nodiscard]] double net_extra_um(NetId net) const;
  [[nodiscard]] DelayCriteria budget_criteria(NetId net,
                                              double new_arc_delay_ps) const;

  Netlist& netlist_;
  Placement placement_;
  TechParams tech_;
  RouterOptions options_;
  std::vector<PathConstraint> constraints_;
  std::unique_ptr<ExecContext> exec_;
  std::unique_ptr<PathSearchEngine> path_engine_;

  std::unique_ptr<DelayGraph> delay_graph_;
  std::unique_ptr<TimingAnalyzer> analyzer_;
  std::unique_ptr<FeedthroughAssignment> assignment_;
  std::unique_ptr<DensityMap> density_;
  IdVector<NetId, std::unique_ptr<RoutingGraph>> graphs_;
  IdVector<NetId, double> net_budget_ps_;  // kNetBudgets mode only
  IdVector<NetId, double> extra_um_;       // back-annotated length corrections
  /// Per-net cost-distance sink weight (steiner backend only): derived once
  /// in run() from the static zero-capacitance slacks, so every later
  /// rebuild (refine, reroute) sees the same weights — a relabeling- and
  /// thread-invariant input.
  IdVector<NetId, double> net_sink_weight_;
  ShardDecomposition shards_;
  CriteriaOrder order_ = CriteriaOrder::kDelayFirst;
  RunState run_state_ = RunState::kIdle;
  std::int32_t feed_cells_added_ = 0;
  std::int32_t widen_pitches_ = 0;
};

}  // namespace bgr
