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
  /// fall back to the unsharded loop automatically. The concurrent
  /// initial-routing phase shards its selection loop and the area passes
  /// (improve_area, refine_area) re-route each shard's nets on its own
  /// worker (DESIGN.md §5); `false` keeps the global scan loop and the
  /// serial passes.
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
  /// evaluation.
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
  /// Cooperative cancellation, polled by run() before netlist validation
  /// and before graph construction, by the assignment pipeline before
  /// every feedthrough round, by the phase runner before every phase of
  /// run(), refine() and reroute(), and by every §3.4 selection loop once
  /// per 256 commits (parallel shard workers and re-routes included: the
  /// parallel region rethrows at its join). A true return throws
  /// CancelledError there; the predicate must be safe to call from
  /// several threads at once. A cancelled run() stays in the kRunning
  /// (poisoned) state and the netlist may already carry inserted feed
  /// cells, so its inputs should be discarded, not reused. Leave empty
  /// when not serving.
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

  /// Interaction-disjoint shard decomposition of the initial-routing
  /// phase (empty when that phase ran sequentially); commits per shard
  /// are filled only when the phase ran sharded. Exposed for the shard
  /// property tests and the scale bench.
  [[nodiscard]] const ShardDecomposition& shard_decomposition() const {
    return shards_;
  }

 private:
  struct Candidate {
    NetId net;
    std::int32_t edge;
  };

  void build_all_graphs();
  void register_graph_density(NetId net);
  void unregister_graph_density(NetId net);
  void refresh_net_estimate(NetId net,
                            TimingAnalyzer::UpdateSlot* slot = nullptr);
  [[nodiscard]] std::int32_t net_density_width(NetId net) const;
  /// The delay half (C_d, Gl, LD: path search + STA evaluation) of a
  /// candidate's SelectionKey. It reads only the member nets' graphs and
  /// estimates and their constraints' timing state. The selection loop
  /// caches it apart from the density half (F_m, N_m, F_M, N_M), which
  /// reads only the density charts of the edge's channel(s): the channel
  /// aggregates and the chart maxima over the edge's span.
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
  /// Every density interval it touches is appended to `changes`. With
  /// `defer_estimate` the graphs' search caches and estimates are left
  /// stale for the caller to refresh.
  void apply_delete(NetId net, std::int32_t edge,
                    TimingAnalyzer::UpdateSlot* slot, bool defer_estimate,
                    std::vector<DensityChange>& changes);
  /// Caller-thread bookkeeping of one commit: stats, metrics, observer.
  void record_commit(NetId net, std::int32_t edge, PhaseStats& stats);
  /// Local effort tallies of one selection loop, folded into the shared
  /// metrics once per loop (shard workers: after the join).
  struct SelectionTally {
    std::int64_t misses = 0;       // key halves recomputed
    std::int64_t hits = 0;         // key halves served from cache
    std::int64_t delay_evals = 0;  // delay halves recomputed
    std::int64_t span_reads = 0;   // density halves that re-read spans
    std::int64_t nan_keys = 0;     // keys set holding a NaN tier

    void add(const SelectionTally& other);
  };
  static void fold_tally(const SelectionTally& tally);
  /// Reusable buffers of select_and_delete (router.cpp): one per exec
  /// slot for the shard workers and the re-routes' per-net loops.
  struct SelectionScratch;
  [[nodiscard]] SelectionScratch& scratch_for_thread();
  using CommitFn =
      std::function<void(NetId, std::int32_t, const SelectionKey&)>;
  /// The §3.4 greedy deletion loop — the one selection routine behind the
  /// global loop, the shard workers and reduce_net_to_tree. Repeatedly
  /// commits the candidate with the smallest key (SelectionIndex order)
  /// until none is deletable, re-keying after each commit only the
  /// candidates whose inputs moved (DESIGN.md §5). `on_commit` runs after
  /// each commit with the key the edge was selected under. Polls cancel
  /// once per 256 commits. Workers off the caller thread pass their timing
  /// slot; the caller thread passes null.
  SelectionTally select_and_delete(const std::vector<Candidate>& candidates,
                                   TimingAnalyzer::UpdateSlot* slot,
                                   SelectionScratch& scratch,
                                   const CommitFn& on_commit);
  /// Fills shards_ with the interaction decomposition (DESIGN.md §13) of
  /// the nets owning `candidates` and, when it has more than one shard,
  /// net_shard_ and one reroute-memo epoch per shard.
  void decompose(const std::vector<Candidate>& candidates);
  /// One STA scratch slot per exec slot, for a parallel region's workers;
  /// absorb each into the analyzer after the join.
  [[nodiscard]] std::vector<TimingAnalyzer::UpdateSlot> timing_slots() const;
  /// Sharded §3.4 deletion loop (DESIGN.md §13) over decompose()'s
  /// shards; needs more than one.
  void run_sharded_deletion(const std::vector<Candidate>& candidates,
                            PhaseStats& stats);
  void delete_in_graph(NetId net, std::int32_t edge, bool refresh_cache,
                       std::vector<DensityChange>& changes);
  /// Deletes edges of one net until its graph is a tree (the local loop of
  /// rip-up/re-route and of the sequential baseline), appending every
  /// committed edge to `committed` in commit order.
  SelectionTally reduce_net_to_tree(NetId net, TimingAnalyzer::UpdateSlot* slot,
                                    std::vector<std::int32_t>& committed);
  void initial_routing(PhaseStats& stats);
  /// Effort of a run of re-routes, folded into the phase and the metrics
  /// on the caller thread (by shard workers' callers after the join).
  struct RerouteTally {
    std::int64_t reroutes = 0;
    std::int64_t skipped = 0;  // answered from the reroute memo
    std::int64_t resets = 0;   // routing graphs reset
    SelectionTally selection;

    void add(const RerouteTally& other);
  };
  static void fold_reroutes(const RerouteTally& tally, PhaseStats& stats);
  /// Rips up and re-routes `net`'s primary (and its shadow), or replays
  /// its memo. Leaves the committed edges in the primary's memo and
  /// records no commit; returns the primary. Workers off the caller
  /// thread pass their timing slot.
  NetId reroute_net(NetId net, TimingAnalyzer::UpdateSlot* slot,
                    RerouteTally& tally);
  /// reroute_net on the caller thread plus its bookkeeping: tallies, then
  /// one record_commit per committed edge.
  void reroute_one(NetId net, PhaseStats& stats);
  /// Re-routes distinct nets with the outcome, stats and observer
  /// sequence of reroute_one over the list in order (DESIGN.md §5): nets
  /// of different shards share no channel and no constraint, so each
  /// shard's sublist runs, in list order, on its own worker; nets in no
  /// shard first, serially. Serial in list order without shards or with
  /// shard_deletion off.
  void reroute_in_shards(const std::vector<NetId>& nets, PhaseStats& stats);
  /// One §3.5 pass: calls its argument once per net to re-route, in
  /// order, and returns false when it found nothing to visit.
  using ReroutePass = std::function<bool(const std::function<void(NetId)>&)>;
  /// The §3.5 rip-up/re-route pass loop (DESIGN.md §5): up to
  /// `improvement_passes` passes, each re-routing the nets `pass` visits.
  /// Stops after a pass that found nothing to visit, or whose `cost` did
  /// not fall by more than `eps` (no `cost`: only the first rule applies).
  void reroute_passes(PhaseStats& stats, const ReroutePass& pass,
                      const std::function<double()>& cost = nullptr,
                      double eps = 0.0);
  /// Violation recovery: budget mode's pass, else improve_timing over
  /// the violated constraints.
  void recover_violations(PhaseStats& stats);
  /// The delay phases' passes: constraints in margin order at pass start,
  /// each visit re-routing the constraint's critical-path nets as they
  /// stand then. `violated_only` (recovery) keeps the violated
  /// constraints, skips those an earlier visit of the pass fixed and
  /// raises the worst margin; otherwise it lowers the total penalty.
  void improve_timing(PhaseStats& stats, bool violated_only);
  void improve_area(PhaseStats& stats);
  /// The one Fig. 2 phase runner behind run(), refine() and reroute():
  /// polls cancel, starts a new reroute-memo epoch, runs `body` when
  /// `enabled` under a trace span, and appends the phase's PhaseStats
  /// (wall, exec/STA/path-search deltas, end-of-phase timing and density)
  /// to `outcome`.
  void run_phase(const std::string& name, bool enabled,
                 const std::function<void(PhaseStats&)>& body,
                 RouteOutcome& outcome);
  /// Fills `outcome`'s totals from the current state; every routing graph
  /// must be a tree.
  void finish_outcome(RouteOutcome& outcome) const;
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
  ShardDecomposition shards_;
  /// Shard of each primary net for the §3.5 passes: the initial phase's
  /// decomposition, with shards_.shard_count() for nets in no shard. Empty
  /// unless that decomposition has more than one shard.
  IdVector<NetId, std::int32_t> net_shard_;
  /// Reroute memo (DESIGN.md §5). A tree epoch advances at every phase
  /// start and whenever an executed re-route leaves its net (primary plus
  /// shadow) with a different tree. There is one epoch per net_shard_
  /// value (one in all without shards): a re-route reads only state its
  /// shard's trees write. A primary's memo holds its epoch at the end of
  /// its last executed re-route and the edges that re-route committed;
  /// while the epoch has not moved since, re-routing the net again would
  /// commit the same edges and end on the tree it already has.
  struct RerouteMemo {
    std::uint64_t epoch = 0;
    std::vector<std::int32_t> edges;
  };
  std::vector<std::uint64_t> tree_epochs_ = {0};
  [[nodiscard]] std::uint64_t& tree_epoch(NetId primary) {
    return tree_epochs_[net_shard_.empty()
                            ? 0
                            : static_cast<std::size_t>(net_shard_[primary])];
  }
  IdVector<NetId, RerouteMemo> reroute_memo_;
  std::vector<std::unique_ptr<SelectionScratch>> scratch_;
  CriteriaOrder order_ = CriteriaOrder::kDelayFirst;
  RunState run_state_ = RunState::kIdle;
  std::int32_t feed_cells_added_ = 0;
  std::int32_t widen_pitches_ = 0;
};

}  // namespace bgr
