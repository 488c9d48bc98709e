#include "bgr/timing/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bgr/common/natural_order.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"

namespace bgr {

namespace {

/// STA work totals. Every update adds its own work, whichever thread runs
/// it, and the counters are atomic, so the totals are a pure function of
/// the design and options — semantic.
struct StaMetrics {
  Counter& full_sweeps = MetricsRegistry::global().counter(
      "sta.full_sweeps", MetricScope::kSemantic);
  Counter& full_vertices = MetricsRegistry::global().counter(
      "sta.full_vertices", MetricScope::kSemantic);
  Counter& incremental_updates = MetricsRegistry::global().counter(
      "sta.incremental_updates", MetricScope::kSemantic);
  Counter& dirty_seeds = MetricsRegistry::global().counter(
      "sta.dirty_seeds", MetricScope::kSemantic);
  Counter& dirty_vertices = MetricsRegistry::global().counter(
      "sta.dirty_vertices", MetricScope::kSemantic);
  Histogram& dirty_cone = MetricsRegistry::global().histogram(
      "sta.dirty_cone_size", MetricScope::kSemantic);
};

StaMetrics& sta_metrics() {
  static StaMetrics* const m = new StaMetrics();
  return *m;
}

}  // namespace

double penalty(double margin_ps, double limit_ps) {
  BGR_CHECK(limit_ps > 0.0);
  if (margin_ps >= 0.0) return 1.0 - margin_ps / limit_ps;
  return std::exp(-margin_ps / limit_ps);
}

TimingAnalyzer::TimingAnalyzer(DelayGraph& delay_graph,
                               std::vector<PathConstraint> constraints,
                               bool incremental)
    : delay_graph_(&delay_graph),
      incremental_(incremental),
      constraints_(std::move(constraints)) {
  const Netlist& netlist = delay_graph_->netlist();
  const Dag& dag = delay_graph_->dag();
  states_.resize(constraints_.size());
  margins_.assign(constraints_.size(), 0.0);
  versions_.assign(constraints_.size(), 0);
  constraints_of_net_.assign(static_cast<std::size_t>(netlist.net_count()), {});
  nets_of_constraint_.resize(constraints_.size());

  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const PathConstraint& pc = constraints_[i];
    BGR_CHECK_MSG(pc.limit_ps > 0.0, "constraint " << pc.name << " limit <= 0");
    BGR_CHECK(!pc.sources.empty() && !pc.sinks.empty());
    ConstraintState& st = states_[i];
    for (const TerminalId t : pc.sources) {
      st.source_vertices.push_back(delay_graph_->vertex_of(t));
    }
    for (const TerminalId t : pc.sinks) {
      st.sink_vertices.push_back(delay_graph_->vertex_of(t));
    }
    st.mask = dag.between(st.source_vertices, st.sink_vertices);

    const ConstraintId cid{static_cast<std::int32_t>(i)};
    for (const NetId n : netlist.nets()) {
      bool member = false;
      for (const auto arc : delay_graph_->net_arcs(n)) {
        const Dag::Edge& e = dag.edge(arc);
        if (st.mask[static_cast<std::size_t>(e.from)] &&
            st.mask[static_cast<std::size_t>(e.to)]) {
          member = true;
          st.net_arc_ids.push_back(arc);
        }
      }
      if (member) {
        constraints_of_net_[n].push_back(cid);
        nets_of_constraint_[i].push_back(n);
      }
    }
    st.is_source.assign(static_cast<std::size_t>(dag.vertex_count()), 0);
    for (const auto v : st.source_vertices) {
      if (st.mask[static_cast<std::size_t>(v)]) {
        st.is_source[static_cast<std::size_t>(v)] = 1;
      }
    }
    st.mask_size = static_cast<std::int64_t>(
        std::count(st.mask.begin(), st.mask.end(), true));
  }
  update_all();
}

void TimingAnalyzer::refresh_margin(ConstraintId p) {
  const ConstraintState& st = states_[p.index()];
  double critical = 0.0;
  for (const auto v : st.sink_vertices) {
    const double d = st.lp[static_cast<std::size_t>(v)];
    if (d != Dag::kMinusInf) critical = std::max(critical, d);
  }
  margins_[p.index()] = constraints_[p.index()].limit_ps - critical;
}

void TimingAnalyzer::full_sweep(ConstraintId p, StaStats& stats) {
  ConstraintState& st = states_[p.index()];
  st.lp = delay_graph_->dag().longest_from(st.source_vertices, st.mask);
  refresh_margin(p);
  ++versions_[p.index()];
  ++stats.full_sweeps;
  stats.full_vertices += st.mask_size;
  sta_metrics().full_sweeps.add(1);
  sta_metrics().full_vertices.add(st.mask_size);
}

TimingAnalyzer::UpdateSlot::UpdateSlot(const TimingAnalyzer& analyzer) {
  if (analyzer.incremental_ && !analyzer.constraints_.empty()) {
    propagator_ = std::make_unique<DirtyPropagator>(analyzer.delay_graph_->dag());
  }
}

void TimingAnalyzer::update_for_net(NetId net, UpdateSlot& slot) {
  const auto& members = constraints_of_net_[net];
  if (members.empty()) return;
  if (!incremental_) {
    for (const ConstraintId p : members) full_sweep(p, slot.stats_);
    return;
  }
  // Dirty-cone propagation: only the heads of the net's wiring arcs (the
  // vertices whose pull reads the changed weights) seed the re-relaxation.
  const Dag& dag = delay_graph_->dag();
  slot.seeds_.clear();
  for (const auto arc : delay_graph_->net_arcs(net)) {
    slot.seeds_.push_back(dag.edge(arc).to);
  }
  for (const ConstraintId p : members) {
    ConstraintState& st = states_[p.index()];
    const DirtyPropagator::Result res = slot.propagator_->propagate(
        slot.seeds_, st.mask, st.is_source, st.lp);
    ++slot.stats_.incremental_updates;
    slot.stats_.dirty_seeds += res.seeds;
    slot.stats_.dirty_vertices += res.relaxed;
    sta_metrics().incremental_updates.add(1);
    sta_metrics().dirty_seeds.add(res.seeds);
    sta_metrics().dirty_vertices.add(res.relaxed);
    sta_metrics().dirty_cone.record(res.relaxed);
    if (res.any_change) {
      // Margin and downstream scores depend only on lp — untouched values
      // mean the constraint (and its score-cache version) stays put.
      refresh_margin(p);
      ++versions_[p.index()];
    }
  }
}

void TimingAnalyzer::absorb(UpdateSlot& slot) {
  stats_.incremental_updates += slot.stats_.incremental_updates;
  stats_.full_sweeps += slot.stats_.full_sweeps;
  stats_.dirty_seeds += slot.stats_.dirty_seeds;
  stats_.dirty_vertices += slot.stats_.dirty_vertices;
  stats_.full_vertices += slot.stats_.full_vertices;
  slot.stats_ = StaStats{};
}

void TimingAnalyzer::update_all() {
  ScopedSpan span("sta_update_all", "sta");
  for (const ConstraintId p : constraints()) full_sweep(p, stats_);
}

double TimingAnalyzer::worst_margin_ps() const {
  double worst = std::numeric_limits<double>::infinity();
  for (const double m : margins_) worst = std::min(worst, m);
  return worst;
}

std::vector<ConstraintId> TimingAnalyzer::violated() const {
  std::vector<ConstraintId> out;
  for (const ConstraintId p : constraints()) {
    if (margins_[p.index()] < 0.0) out.push_back(p);
  }
  return out;
}

double TimingAnalyzer::local_margin_ps(ConstraintId p, NetId net,
                                       double new_arc_delay_ps) const {
  const ConstraintState& st = states_[p.index()];
  const Dag& dag = delay_graph_->dag();
  double worst_increase = 0.0;
  for (const auto arc : delay_graph_->net_arcs(net)) {
    const Dag::Edge& e = dag.edge(arc);
    if (!st.mask[static_cast<std::size_t>(e.from)] ||
        !st.mask[static_cast<std::size_t>(e.to)]) {
      continue;
    }
    const double lp_v = st.lp[static_cast<std::size_t>(e.from)];
    const double lp_w = st.lp[static_cast<std::size_t>(e.to)];
    if (lp_v == Dag::kMinusInf || lp_w == Dag::kMinusInf) continue;
    worst_increase =
        std::max(worst_increase, std::max(0.0, lp_v + new_arc_delay_ps - lp_w));
  }
  return margins_[p.index()] - worst_increase;
}

DelayCriteria TimingAnalyzer::evaluate(NetId net, double new_cap_pf) const {
  return evaluate_arc_delay(
      net, delay_graph_->net_arc_delay_for_cap(net, new_cap_pf));
}

DelayCriteria TimingAnalyzer::evaluate_arc_delay(NetId net,
                                                 double new_arc_delay_ps) const {
  DelayCriteria out;
  const auto& members = constraints_of_net_[net];
  if (members.empty()) return out;
  const double d_new = new_arc_delay_ps;
  const double d_cur = delay_graph_->net_arc_delay(net);
  const Dag& dag = delay_graph_->dag();
  for (const ConstraintId p : members) {
    const double limit = constraints_[p.index()].limit_ps;
    const double lm = local_margin_ps(p, net, d_new);
    if (lm <= 0.0) ++out.critical_count;
    out.global_delay += penalty(lm, limit) - penalty(margins_[p.index()], limit);
    // LD(e): total arc-delay change inside G_d(P).
    const ConstraintState& st = states_[p.index()];
    for (const auto arc : delay_graph_->net_arcs(net)) {
      const Dag::Edge& e = dag.edge(arc);
      if (st.mask[static_cast<std::size_t>(e.from)] &&
          st.mask[static_cast<std::size_t>(e.to)]) {
        out.local_delay += d_new - d_cur;
      }
    }
  }
  return out;
}

std::vector<NetId> TimingAnalyzer::critical_path_nets(ConstraintId p) const {
  constexpr double kEps = 1e-6;
  const ConstraintState& st = states_[p.index()];
  const Dag& dag = delay_graph_->dag();
  const double critical = critical_delay_ps(p);
  // ls(v): longest distance to any sink inside the mask.
  const auto ls = dag.longest_to(st.sink_vertices, st.mask);
  std::vector<NetId> out;
  for (const auto arc : st.net_arc_ids) {
    const Dag::Edge& e = dag.edge(arc);
    const double lp_v = st.lp[static_cast<std::size_t>(e.from)];
    const double ls_w = ls[static_cast<std::size_t>(e.to)];
    if (lp_v == Dag::kMinusInf || ls_w == Dag::kMinusInf) continue;
    if (lp_v + e.weight + ls_w >= critical - kEps) {
      const NetId net{e.label};
      if (std::find(out.begin(), out.end(), net) == out.end()) {
        out.push_back(net);
      }
    }
  }
  // The arc scan above walks nets in id order; reroute passes consume this
  // list in sequence, so sort it by the same relabeling-invariant key the
  // assignment sweep uses (natural_order.hpp) to keep routed results
  // independent of net numbering.
  std::stable_sort(out.begin(), out.end(), [&](NetId a, NetId b) {
    return processing_order_less(delay_graph_->netlist().net(a).name,
                                 delay_graph_->netlist().net(b).name);
  });
  return out;
}

IdVector<NetId, double> TimingAnalyzer::net_slacks() const {
  const Netlist& netlist = delay_graph_->netlist();
  const Dag& dag = delay_graph_->dag();
  IdVector<NetId, double> slacks(static_cast<std::size_t>(netlist.net_count()),
                                 std::numeric_limits<double>::infinity());
  for (const ConstraintId p : constraints()) {
    const ConstraintState& st = states_[p.index()];
    const double limit = constraints_[p.index()].limit_ps;
    const auto ls = dag.longest_to(st.sink_vertices, st.mask);
    for (const auto arc : st.net_arc_ids) {
      const Dag::Edge& e = dag.edge(arc);
      const double lp_v = st.lp[static_cast<std::size_t>(e.from)];
      const double ls_w = ls[static_cast<std::size_t>(e.to)];
      if (lp_v == Dag::kMinusInf || ls_w == Dag::kMinusInf) continue;
      const NetId net{e.label};
      slacks[net] = std::min(slacks[net], limit - (lp_v + e.weight + ls_w));
    }
  }
  return slacks;
}

}  // namespace bgr
