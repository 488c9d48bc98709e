#pragma once

#include <string>
#include <vector>

#include <memory>

#include "bgr/common/ids.hpp"
#include "bgr/timing/delay_graph.hpp"
#include "bgr/timing/incremental.hpp"

namespace bgr {

/// Critical path constraint P = (S_P, T_P, δ_P) of §2.2.
struct PathConstraint {
  std::string name;
  std::vector<TerminalId> sources;  // S_P
  std::vector<TerminalId> sinks;    // T_P
  double limit_ps = 0.0;            // δ_P
};

/// Penalty function of Eq. (4): pen(x, P) = 1 − x/δ for x ≥ 0,
/// exp(−x/δ) for x < 0.
[[nodiscard]] double penalty(double margin_ps, double limit_ps);

/// Delay-criteria triple of §3.2 for one candidate edge deletion.
struct DelayCriteria {
  std::int32_t critical_count = 0;  // C_d(e)
  double global_delay = 0.0;        // Gl(e)
  double local_delay = 0.0;         // LD(e)
};

/// Static timing over the delay constraint graphs G_d(P). Keeps, per
/// constraint, the subset mask of G_D, the longest-path prefix values
/// lp(v), the critical delay and the margin M(P); exposes the evaluations
/// the router's edge-selection heuristics need.
class TimingAnalyzer {
 public:
  /// `incremental` switches update_for_net from full per-constraint
  /// re-sweeps to dirty-cone propagation (DirtyPropagator): only the
  /// fanout of the changed net's wiring arcs is re-relaxed, and margins
  /// are refreshed from the cached lp values. Arrival times, margins and
  /// slacks are bit-identical to the full sweeps in either mode.
  TimingAnalyzer(DelayGraph& delay_graph,
                 std::vector<PathConstraint> constraints,
                 bool incremental = false);

  [[nodiscard]] DelayGraph& delay_graph() { return *delay_graph_; }
  [[nodiscard]] const DelayGraph& delay_graph() const { return *delay_graph_; }
  [[nodiscard]] std::int32_t constraint_count() const {
    return static_cast<std::int32_t>(constraints_.size());
  }
  [[nodiscard]] const PathConstraint& constraint(ConstraintId p) const {
    return constraints_.at(p.index());
  }
  [[nodiscard]] IdRange<ConstraintId> constraints() const {
    return IdRange<ConstraintId>(constraints_.size());
  }

  /// Constraints whose G_d(P) contains wiring arcs of this net — the set
  /// P(e) for every edge e of the net's routing graph.
  [[nodiscard]] const std::vector<ConstraintId>& constraints_of_net(
      NetId net) const {
    return constraints_of_net_.at(net);
  }
  /// Nets with at least one wiring arc inside G_d(P).
  [[nodiscard]] const std::vector<NetId>& nets_of_constraint(
      ConstraintId p) const {
    return nets_of_constraint_.at(p.index());
  }

  /// Scratch for one caller of update_for_net: a private dirty-cone
  /// propagator, seed buffer and StaStats accumulator. Concurrent callers
  /// (the router's shard workers) each use their own slot; their nets
  /// touch disjoint constraint sets by construction, so the shared
  /// per-constraint arrays (lp, margins, versions) are written without
  /// overlap.
  class UpdateSlot {
   public:
    explicit UpdateSlot(const TimingAnalyzer& analyzer);

   private:
    friend class TimingAnalyzer;
    std::unique_ptr<DirtyPropagator> propagator_;  // incremental mode only
    std::vector<std::int32_t> seeds_;
    StaStats stats_;
  };

  /// Recomputes lp / critical delay / margin for every constraint touched
  /// by this net (to be called after DelayGraph::set_net_cap), with every
  /// piece of mutable scratch in `slot`. Concurrent callers must touch
  /// disjoint constraint sets. The slot's counters reach sta_stats() only
  /// through absorb().
  void update_for_net(NetId net, UpdateSlot& slot);

  /// Adds a slot's accumulated counters into sta_stats() and zeroes them.
  void absorb(UpdateSlot& slot);

  /// Full recompute of all constraints.
  void update_all();

  [[nodiscard]] double margin_ps(ConstraintId p) const {
    return margins_.at(p.index());
  }
  /// Cached arrival times lp(v) of the constraint subgraph G_d(P)
  /// (kMinusInf outside the mask / unreachable). Exposed for the
  /// differential cross-checks of the incremental engine.
  [[nodiscard]] const std::vector<double>& longest_prefix(ConstraintId p) const {
    return states_.at(p.index()).lp;
  }
  [[nodiscard]] bool incremental() const { return incremental_; }
  [[nodiscard]] const StaStats& sta_stats() const { return stats_; }
  /// Monotone per-constraint change counter: bumped whenever the
  /// constraint's lp values or margin may have changed. Score caches key
  /// their timing staleness off the versions of the constraints their net
  /// belongs to — the dirty-net set — instead of one global stamp.
  [[nodiscard]] std::uint64_t version(ConstraintId p) const {
    return versions_.at(p.index());
  }
  [[nodiscard]] double critical_delay_ps(ConstraintId p) const {
    return constraints_.at(p.index()).limit_ps - margins_.at(p.index());
  }
  /// Worst (most negative) margin over all constraints; +inf if none.
  [[nodiscard]] double worst_margin_ps() const;
  [[nodiscard]] std::vector<ConstraintId> violated() const;

  /// Local margin LM(e, P) of Eq. (2) given the wiring-arc delay d′ the
  /// net would have after the deletion.
  [[nodiscard]] double local_margin_ps(ConstraintId p, NetId net,
                                       double new_arc_delay_ps) const;

  /// Aggregates C_d, Gl and LD of §3.2 for deleting an edge of `net`,
  /// given the net capacitance CL′ the tentative tree would have after the
  /// deletion (lumped model).
  [[nodiscard]] DelayCriteria evaluate(NetId net, double new_cap_pf) const;

  /// Same aggregation given the worst wiring-arc delay d′ directly (used
  /// by the RC delay-model extension, where d′ includes the per-sink
  /// Elmore term).
  [[nodiscard]] DelayCriteria evaluate_arc_delay(NetId net,
                                                 double new_arc_delay_ps) const;

  /// Nets whose wiring arcs lie on the critical (longest) path of P.
  [[nodiscard]] std::vector<NetId> critical_path_nets(ConstraintId p) const;

  /// Per-net static slack with the *current* capacitances: the minimum
  /// over constraints and arcs of δ_P − (lp(v) + d + ls(w)). Nets outside
  /// every constraint get +inf. Used for the slack-ascending net ordering
  /// of the feedthrough assignment (§3.1).
  [[nodiscard]] IdVector<NetId, double> net_slacks() const;

 private:
  struct ConstraintState {
    std::vector<std::int32_t> source_vertices;
    std::vector<std::int32_t> sink_vertices;
    std::vector<bool> mask;       // G_d(P) support in G_D
    std::vector<double> lp;       // longest from sources within mask
    std::vector<std::int32_t> net_arc_ids;  // dag edges of member nets in mask
    std::vector<char> is_source;  // in-mask source flags (propagator input)
    std::int64_t mask_size = 0;   // vertices of G_d(P), for sweep accounting
  };

  /// Full longest-path sweep of one constraint, counted into `stats`.
  void full_sweep(ConstraintId p, StaStats& stats);

  /// Refreshes margins_[p] from the cached lp values of the constraint.
  void refresh_margin(ConstraintId p);

  DelayGraph* delay_graph_;
  bool incremental_ = false;
  std::vector<PathConstraint> constraints_;
  std::vector<ConstraintState> states_;
  std::vector<double> margins_;
  std::vector<std::uint64_t> versions_;
  StaStats stats_;
  IdVector<NetId, std::vector<ConstraintId>> constraints_of_net_;
  std::vector<std::vector<NetId>> nets_of_constraint_;
};

}  // namespace bgr
