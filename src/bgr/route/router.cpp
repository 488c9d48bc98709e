#include "bgr/route/router.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string_view>

#include "bgr/common/log.hpp"
#include "bgr/common/natural_order.hpp"
#include "bgr/common/stopwatch.hpp"
#include "bgr/exec/parallel.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"
#include "bgr/route/selection_index.hpp"

namespace bgr {

namespace {

/// Router metrics. Deletions, reroutes, graph builds, score-cache *misses*
/// (key halves recomputed), delay-half evaluations and span re-reads are
/// semantic: the dirty set re-keyed after each commit is a pure function of
/// the commit.
/// Cache *hits* (key halves reused when a candidate is re-keyed) are
/// deterministic as well, but stay in the nondeterministic namespace so
/// existing reports keep their layout.
struct RouteMetrics {
  Counter& deleted_edges = MetricsRegistry::global().counter(
      "route.deleted_edges", MetricScope::kSemantic);
  Counter& reroutes = MetricsRegistry::global().counter(
      "route.reroutes", MetricScope::kSemantic);
  /// Re-routes answered from the reroute memo (counted in `reroutes` too).
  Counter& reroutes_skipped = MetricsRegistry::global().counter(
      "route.reroutes_skipped", MetricScope::kSemantic);
  /// Routing graphs constructed: once per net, in build_graphs.
  Counter& graphs_built = MetricsRegistry::global().counter(
      "route.graphs_built", MetricScope::kSemantic);
  /// Graphs reset to their construction-time state, one per member of an
  /// executed re-route.
  Counter& graph_resets = MetricsRegistry::global().counter(
      "route.graph_resets", MetricScope::kSemantic);
  Counter& score_miss = MetricsRegistry::global().counter(
      "route.score_cache_miss", MetricScope::kSemantic);
  Counter& score_hit = MetricsRegistry::global().counter(
      "route.score_cache_hit", MetricScope::kNonDeterministic);
  Counter& key_delay_evals = MetricsRegistry::global().counter(
      "route.key_delay_evals", MetricScope::kSemantic);
  Counter& key_span_reads = MetricsRegistry::global().counter(
      "route.key_span_reads", MetricScope::kSemantic);
  /// Branch tops that found the branch candidates' density halves stale
  /// and re-keyed them all (the lazy branch tier, DESIGN.md §5).
  Counter& branch_flushes = MetricsRegistry::global().counter(
      "route.branch_flushes", MetricScope::kSemantic);
  /// Keys holding a NaN tier (SelectionIndex compares those unpacked).
  /// Expected to stay 0; nondeterministic scope only so that existing
  /// reports keep their semantic layout.
  Counter& nan_keys = MetricsRegistry::global().counter(
      "route.nan_keys", MetricScope::kNonDeterministic);
  Counter& feed_cells = MetricsRegistry::global().counter(
      "layout.feed_cells_added", MetricScope::kSemantic);
  Counter& widen_pitches = MetricsRegistry::global().counter(
      "layout.widen_pitches", MetricScope::kSemantic);
  Histogram& graph_edges = MetricsRegistry::global().histogram(
      "route.graph_edges", MetricScope::kSemantic);
  /// Sharded-deletion decomposition (DESIGN.md §13). All semantic: the
  /// decomposition is a pure function of the net footprints and each
  /// shard's loop is value-driven, so every count matches at any thread
  /// count (worker adds commute through the atomic counters).
  Counter& shard_components = MetricsRegistry::global().counter(
      "shard.components", MetricScope::kSemantic);
  Counter& shard_commits = MetricsRegistry::global().counter(
      "shard.commits", MetricScope::kSemantic);
  Counter& shard_fallbacks = MetricsRegistry::global().counter(
      "shard.fallbacks", MetricScope::kSemantic);
  Histogram& shard_nets = MetricsRegistry::global().histogram(
      "shard.nets", MetricScope::kSemantic);
};

RouteMetrics& route_metrics() {
  static RouteMetrics* const m = new RouteMetrics();
  return *m;
}

/// Throws CancelledError when the router's owner asked it to stop.
void poll_cancel(const RouterOptions& options, std::string_view where) {
  if (options.cancel_requested && options.cancel_requested()) {
    throw CancelledError("route cancelled before " + std::string(where));
  }
}

/// Commits between two cancel polls of a selection loop: a poll costs one
/// predicate call, a commit on 10k ~65 us.
constexpr std::int64_t kCancelPollCommits = 256;

/// Order in which a parallel region takes per-shard work lists: largest
/// first (ties by shard), so the last chunks handed out are the short ones
/// and the workers finish together. Results never depend on it.
template <typename T>
std::vector<std::size_t> largest_first(const std::vector<std::vector<T>>& lists) {
  std::vector<std::size_t> order(lists.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lists[a].size() > lists[b].size();
  });
  return order;
}

}  // namespace

GlobalRouter::GlobalRouter(Netlist& netlist, Placement placement,
                           TechParams tech,
                           std::vector<PathConstraint> constraints,
                           RouterOptions options)
    : netlist_(netlist),
      placement_(std::move(placement)),
      tech_(tech),
      options_(options),
      constraints_(std::move(constraints)),
      exec_(options.shared_pool != nullptr
                ? std::make_unique<ExecContext>(options.shared_pool)
                : std::make_unique<ExecContext>(
                      options.threads == 0 ? ExecContext::hardware_threads()
                                           : options.threads)),
      path_engine_(std::make_unique<PathSearchEngine>(options.path_search,
                                                      exec_.get())),
      scratch_(static_cast<std::size_t>(exec_->thread_count())) {}

GlobalRouter::~GlobalRouter() = default;

const RoutingGraph& GlobalRouter::net_graph(NetId net) const {
  const auto& g = graphs_.at(net);
  BGR_CHECK(g != nullptr);
  return *g;
}

double GlobalRouter::net_length_um(NetId net) const {
  return net_graph(net).alive_length_um();
}

NetId GlobalRouter::primary_of(NetId net) const {
  const Net& n = netlist_.net(net);
  if (n.is_differential() && !n.diff_primary) return n.diff_partner;
  return net;
}

bool GlobalRouter::timing_active_for(NetId net) const {
  return options_.use_constraints &&
         !analyzer_->constraints_of_net(net).empty();
}

std::int32_t GlobalRouter::net_density_width(NetId net) const {
  // Each member of a differential pair contributes its own 1-pitch track;
  // a w-pitch net occupies w tracks everywhere.
  return netlist_.net(net).pitch_width;
}

void GlobalRouter::build_all_graphs() {
  ScopedSpan span("build_graphs", "route");
  graphs_.clear();
  graphs_.resize(static_cast<std::size_t>(netlist_.net_count()));
  reroute_memo_.clear();
  reroute_memo_.resize(static_cast<std::size_t>(netlist_.net_count()));
  // Each G_r(n) depends only on the (const) netlist, placement and
  // feedthrough assignment, so all nets build concurrently — the shadow of
  // a differential pair reads its primary's *assignment*, not its graph.
  parallel_for(
      *exec_, netlist_.net_count(),
      [&](std::int64_t i) {
        const NetId n{static_cast<std::int32_t>(i)};
        const Net& net = netlist_.net(n);
        if (net.is_differential() && !net.diff_primary) {
          graphs_[n] = std::make_unique<RoutingGraph>(
              netlist_, placement_, tech_, *assignment_, n, net.diff_partner,
              1);
        } else {
          graphs_[n] = std::make_unique<RoutingGraph>(netlist_, placement_,
                                                      tech_, *assignment_, n);
        }
        // Attach inside the region so the search caches (one reference
        // search per net) also build concurrently.
        graphs_[n]->set_path_search(path_engine_.get());
      },
      /*grain=*/1);
  for (const NetId n : netlist_.nets()) {
    route_metrics().graphs_built.add(1);
    route_metrics().graph_edges.record(graphs_[n]->graph().edge_count());
  }
  // Differential pairs must be homogeneous so edge ids mirror one-to-one.
  for (const NetId n : netlist_.nets()) {
    const Net& net = netlist_.net(n);
    if (!net.is_differential() || !net.diff_primary) continue;
    const RoutingGraph& a = *graphs_[n];
    const RoutingGraph& b = *graphs_[net.diff_partner];
    BGR_CHECK_MSG(a.graph().edge_count() == b.graph().edge_count(),
                  "differential pair graphs not homogeneous: " + net.name);
    for (std::int32_t e = 0; e < a.graph().edge_count(); ++e) {
      BGR_CHECK(a.edge_info(e).kind == b.edge_info(e).kind);
    }
  }
  for (const NetId n : netlist_.nets()) {
    register_graph_density(n);
    refresh_net_estimate(n);
  }
  analyzer_->update_all();
}

void GlobalRouter::register_graph_density(NetId net) {
  const RoutingGraph& g = *graphs_[net];
  const std::int32_t w = net_density_width(net);
  for (const auto e : g.alive_edges()) {
    const RouteEdgeInfo& info = g.edge_info(e);
    if (!info.is_trunk()) continue;
    density_->add_total(info.channel, info.span, w);
    if (g.is_bridge(e)) density_->add_bridge(info.channel, info.span, w);
  }
}

void GlobalRouter::unregister_graph_density(NetId net) {
  const RoutingGraph& g = *graphs_[net];
  const std::int32_t w = net_density_width(net);
  for (const auto e : g.alive_edges()) {
    const RouteEdgeInfo& info = g.edge_info(e);
    if (!info.is_trunk()) continue;
    density_->remove_total(info.channel, info.span, w);
    if (g.is_bridge(e)) density_->remove_bridge(info.channel, info.span, w);
  }
}

double GlobalRouter::net_extra_um(NetId net) const {
  return extra_um_.empty() ? 0.0 : extra_um_.at(net);
}

void GlobalRouter::refresh_net_estimate(NetId net) {
  const RoutingGraph& g = *graphs_[net];
  const double cap =
      tech_.wire_cap_pf(g.estimated_length_um() + net_extra_um(net),
                        netlist_.net(net).pitch_width);
  if (options_.delay_model == DelayModel::kElmoreRC) {
    const auto rc = g.elmore(tech_, netlist_.net(net).pitch_width,
                             [&](TerminalId t) {
                               return netlist_.terminal_fanin_cap_pf(t);
                             });
    delay_graph_->set_net_rc(net, cap, rc.sink_wire_ps);
  } else {
    delay_graph_->set_net_cap(net, cap);
  }
  if (timing_active_for(net)) {
    analyzer_->update_for_net(
        net, timing_slots_[static_cast<std::size_t>(exec_->current_slot())]);
  }
}

bool GlobalRouter::delay_half_active(NetId net) const {
  if (!options_.use_constraints || !options_.use_delay_criteria) return false;
  const Net& n = netlist_.net(net);
  return !analyzer_->constraints_of_net(net).empty() ||
         (n.is_differential() &&
          !analyzer_->constraints_of_net(n.diff_partner).empty());
}

void GlobalRouter::fill_delay_half(NetId net, std::int32_t edge,
                                   SelectionKey& key) const {
  key.critical_count = 0;
  key.global_delay = 0.0;
  key.local_delay = 0.0;
  auto accumulate = [&](NetId member, const RoutingGraph& mg) {
    if (analyzer_->constraints_of_net(member).empty()) return;
    const double len = mg.estimated_length_um(edge) + net_extra_um(member);
    const double cap =
        tech_.wire_cap_pf(len, netlist_.net(member).pitch_width);
    DelayCriteria dc;
    if (options_.use_net_budgets) {
      dc = budget_criteria(
          member, delay_graph_->net_arc_delay_for_cap(member, cap));
    } else if (options_.delay_model == DelayModel::kElmoreRC) {
      // Worst-sink arc delay after the deletion: lumped part plus the
      // largest per-sink Elmore wire term (pessimistic, in the spirit of
      // the LM(e, P) estimate).
      const auto rc = mg.elmore(tech_, netlist_.net(member).pitch_width,
                                [&](TerminalId t) {
                                  return netlist_.terminal_fanin_cap_pf(t);
                                },
                                edge);
      double worst_extra = 0.0;
      for (const auto& [term, ps] : rc.sink_wire_ps) {
        (void)term;
        worst_extra = std::max(worst_extra, ps);
      }
      dc = analyzer_->evaluate_arc_delay(
          member,
          delay_graph_->net_arc_delay_for_cap(member, cap) + worst_extra);
    } else {
      dc = analyzer_->evaluate(member, cap);
    }
    key.critical_count += dc.critical_count;
    key.global_delay += dc.global_delay;
    key.local_delay += dc.local_delay;
  };
  accumulate(net, *graphs_[net]);
  const Net& n = netlist_.net(net);
  if (n.is_differential()) {
    accumulate(n.diff_partner, *graphs_[n.diff_partner]);
  }
}

void GlobalRouter::delete_in_graph(NetId net, std::int32_t edge,
                                   bool refresh_cache,
                                   std::vector<DensityChange>& changes) {
  RoutingGraph& g = *graphs_[net];
  const std::int32_t w = net_density_width(net);
  const auto result = g.delete_edge(edge, refresh_cache);
  // No removed edge was a bridge (DESIGN.md §5), so only d_M loses them.
  for (const auto removed : result.removed_edges) {
    const RouteEdgeInfo& info = g.edge_info(removed);
    if (!info.is_trunk()) continue;
    density_->remove_total(info.channel, info.span, w);
    changes.push_back(DensityChange{info.channel, info.span, false});
  }
  for (const auto nb : result.new_bridges) {
    const RouteEdgeInfo& info = g.edge_info(nb);
    if (!info.is_trunk()) continue;
    density_->add_bridge(info.channel, info.span, w);
    changes.push_back(DensityChange{info.channel, info.span, true});
  }
}

void GlobalRouter::apply_delete(NetId net, std::int32_t edge,
                                bool defer_estimate,
                                std::vector<DensityChange>& changes) {
  delete_in_graph(net, edge, !defer_estimate, changes);
  if (!defer_estimate) refresh_net_estimate(net);
  const Net& n = netlist_.net(net);
  if (n.is_differential()) {
    // Mirrored deletion on the homogeneous shadow graph (§4.1).
    delete_in_graph(n.diff_partner, edge, !defer_estimate, changes);
    if (!defer_estimate) refresh_net_estimate(n.diff_partner);
  }
}

void GlobalRouter::record_commit(NetId net, std::int32_t edge,
                                 PhaseStats& stats) {
  ++stats.deletions;
  route_metrics().deleted_edges.add(1);
  if (options_.deletion_observer) options_.deletion_observer(net, edge);
}

void GlobalRouter::SelectionTally::add(const SelectionTally& other) {
  misses += other.misses;
  hits += other.hits;
  delay_evals += other.delay_evals;
  span_reads += other.span_reads;
  nan_keys += other.nan_keys;
  branch_flushes += other.branch_flushes;
}

void GlobalRouter::fold_tally(const SelectionTally& tally) {
  route_metrics().score_miss.add(tally.misses);
  route_metrics().score_hit.add(tally.hits);
  route_metrics().key_delay_evals.add(tally.delay_evals);
  route_metrics().key_span_reads.add(tally.span_reads);
  route_metrics().nan_keys.add(tally.nan_keys);
  route_metrics().branch_flushes.add(tally.branch_flushes);
}

namespace {

/// Reverse-map entry of the selection loop: one channel a candidate's
/// density half reads, the columns it reads there, and the aggregates
/// D_M, ND_M, D_m, ND_m over those columns as last read.
struct ChannelRef {
  std::int32_t channel;
  std::int32_t lo;
  std::int32_t hi;
  std::int32_t slot;
  EdgeDensityParams span;
};
static_assert(sizeof(ChannelRef) <= 32, "one ref per half cache line");

/// The refs of one channel, split by position: the trunk candidates' refs
/// in [begin, mid), the branch candidates' in [mid, end) (feedthroughs of
/// the channel below included), each range sorted by span start.
/// `trunk_len` and `branch_len` bound each range's overlap search; `seen`
/// holds the channel aggregates every cached density half of the channel
/// was computed from, so a commit can tell whether they moved.
struct ChannelRefs {
  std::int32_t channel;
  std::size_t begin;
  std::size_t mid;
  std::size_t end;
  std::int32_t trunk_len;
  std::int32_t branch_len;
  ChannelDensityParams seen;
};

/// Positions of one candidate's refs in the sorted ref list: its channel
/// and, for a feedthrough edge, the channel above (-1 otherwise).
struct SlotRefs {
  std::int32_t own = -1;
  std::int32_t above = -1;
};

/// Candidates [begin, end) of one net (their slots: the loop's slot_of);
/// `round` dedups delay marking within one commit; `stale` marks a net
/// whose estimate refresh waits for the end of the loop.
struct NetSlots {
  NetId net;
  std::int32_t begin;
  std::int32_t end;
  std::int64_t round;
  bool stale;
};

/// Dirty bits of a candidate: its delay half; its density half; and,
/// with the density half, the cached span aggregates of its refs, per
/// chart: D_M/ND_M of the total chart, D_m/ND_m of the bridge chart.
constexpr char kDelayDirty = 1;
constexpr char kDensityDirty = 2;
constexpr char kTotalSpanDirty = 4;
constexpr char kBridgeSpanDirty = 8;
constexpr char kSpanDirty = kTotalSpanDirty | kBridgeSpanDirty;

/// One channel's density tiers: channel aggregates minus span aggregates.
void fill_density_tiers(const ChannelDensityParams& cp,
                        const EdgeDensityParams& ep, SelectionKey& key) {
  key.f_min = cp.c_min - ep.d_min;
  key.n_min = cp.nc_min - ep.nd_min;
  key.f_max = cp.c_max - ep.d_max;
  key.n_max = cp.nc_max - ep.nd_max;
}

/// Slot order key of a candidate edge: (channel, trunk before branch, span
/// start), so each channel's own refs arrive split and sorted.
std::uint64_t slot_rank(std::int32_t channel, bool branch, std::int32_t lo) {
  return static_cast<std::uint64_t>(channel) << 33 |
         static_cast<std::uint64_t>(branch ? 1 : 0) << 32 |
         (static_cast<std::uint32_t>(lo) ^ 0x80000000U);
}

}  // namespace

struct GlobalRouter::SelectionScratch {
  SelectionIndex index{CriteriaOrder::kDelayFirst};
  std::vector<std::int32_t> slot_of;  // candidate → slot
  std::vector<NetSlots> nets;
  std::vector<ChannelRef> refs;
  std::vector<ChannelRef> above;  // feedthroughs' refs to the channel above
  std::vector<ChannelRefs> channels;
  std::vector<SlotRefs> slot_refs;
  std::vector<char> branch;  // slot → not a trunk edge
  std::vector<char> delay_active;
  std::vector<char> dirty_bits;
  std::vector<std::int32_t> dirty;
  std::vector<std::pair<ConstraintId, std::uint64_t>> versions;
  std::vector<DensityChange> changes;
};

GlobalRouter::SelectionScratch& GlobalRouter::scratch_for_thread() {
  // Sized per exec slot at construction, so workers never resize it.
  auto& scratch = scratch_[static_cast<std::size_t>(exec_->current_slot())];
  if (scratch == nullptr) scratch = std::make_unique<SelectionScratch>();
  return *scratch;
}

GlobalRouter::SelectionTally GlobalRouter::select_and_delete(
    const std::vector<Candidate>& candidates, SelectionScratch& scratch,
    const CommitFn& on_commit) {
  SelectionTally tally;
  SelectionIndex& index = scratch.index;
  index.clear(order_);

  // Slots in (channel, trunk before branch, span start) order of each
  // candidate's own channel: the candidates a channel-aggregate move
  // re-keys then sit on adjacent leaves and share their tree paths, and
  // the ref list below needs no sort. The root does not depend on slot
  // order (it is the unique minimum).
  auto& slot_of = scratch.slot_of;
  slot_of.resize(candidates.size());
  index.reserve(candidates.size());
  {
    // Freed before the loop starts: it is not part of the loop's peak.
    std::vector<std::pair<std::uint64_t, std::int32_t>> order;
    order.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      std::uint64_t at = 0;
      if (options_.use_density_criteria) {
        const Candidate& c = candidates[i];
        const RouteEdgeInfo& info = graphs_[c.net]->edge_info(c.edge);
        at = slot_rank(info.channel, !info.is_trunk(), info.span.lo);
      }
      order.emplace_back(at, static_cast<std::int32_t>(i));
    }
    if (options_.use_density_criteria) std::sort(order.begin(), order.end());
    for (const auto& [at, i] : order) {
      const Candidate& c = candidates[static_cast<std::size_t>(i)];
      slot_of[static_cast<std::size_t>(i)] =
          index.add(c.net, c.edge, netlist_.net(c.net).name);
    }
  }
  const auto slot_count = static_cast<std::size_t>(index.slot_count());
  auto& branch = scratch.branch;
  auto& delay_active = scratch.delay_active;
  branch.resize(slot_count);
  delay_active.resize(slot_count);
  for (std::size_t s = 0; s < slot_count; ++s) {
    const NetId net = index.net(static_cast<std::int32_t>(s));
    const std::int32_t edge = index.edge(static_cast<std::int32_t>(s));
    branch[s] = graphs_[net]->edge_info(edge).is_trunk() ? 0 : 1;
    delay_active[s] = delay_half_active(net) ? 1 : 0;
  }

  // net → candidates. Callers list candidates grouped by ascending net.
  auto& nets = scratch.nets;
  nets.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const NetId net = candidates[i].net;
    const auto k = static_cast<std::int32_t>(i);
    if (nets.empty() || nets.back().net != net) {
      BGR_CHECK(nets.empty() || nets.back().net < net);
      nets.push_back(NetSlots{net, k, k, -1, false});
    }
    nets.back().end = k + 1;
  }
  auto slots_of = [&](NetId net) -> NetSlots* {
    const auto it = std::lower_bound(
        nets.begin(), nets.end(), net,
        [](const NetSlots& a, NetId b) { return a.net < b; });
    return it != nets.end() && it->net == net ? &*it : nullptr;
  };

  // channel → candidates, for the density half.
  auto& refs = scratch.refs;
  auto& channels = scratch.channels;
  auto& slot_refs = scratch.slot_refs;
  refs.clear();
  channels.clear();
  if (options_.use_density_criteria) {
    // Own refs in slot order are sorted by (channel, branch, start). The
    // refs feedthroughs read from the channel above (branches, sorted by
    // channel and start) merge into those channels' branch ranges, from
    // the back and in place.
    auto& above = scratch.above;
    above.clear();
    for (std::int32_t s = 0; s < index.slot_count(); ++s) {
      const RouteEdgeInfo& info = graphs_[index.net(s)]->edge_info(index.edge(s));
      refs.push_back(
          ChannelRef{info.channel, info.span.lo, info.span.hi, s, {}});
      if (info.kind == RouteEdgeKind::kFeed) {
        above.push_back(
            ChannelRef{info.channel + 1, info.span.lo, info.span.hi, s, {}});
      }
    }
    auto rank = [&](const ChannelRef& r) {
      return slot_rank(r.channel, branch[static_cast<std::size_t>(r.slot)] != 0,
                       r.lo);
    };
    std::size_t own = refs.size();
    std::size_t up = above.size();
    refs.resize(own + up);
    for (std::size_t w = refs.size(); up > 0;) {
      const bool take_own = own > 0 && rank(refs[own - 1]) > rank(above[up - 1]);
      refs[--w] = take_own ? refs[--own] : above[--up];
    }
    slot_refs.assign(slot_count, SlotRefs{});
    for (std::size_t i = 0; i < refs.size(); ++i) {
      // A feedthrough's own channel sorts before the channel above.
      SlotRefs& sr = slot_refs[static_cast<std::size_t>(refs[i].slot)];
      (sr.own < 0 ? sr.own : sr.above) = static_cast<std::int32_t>(i);
    }
    for (std::size_t i = 0; i < refs.size();) {
      ChannelRefs cr{refs[i].channel, i, i, i, 0, 0,
                     density_->channel_params(refs[i].channel)};
      for (; cr.end < refs.size() && refs[cr.end].channel == cr.channel;
           ++cr.end) {
        const ChannelRef& r = refs[cr.end];
        if (branch[static_cast<std::size_t>(r.slot)] == 0) {
          cr.mid = cr.end + 1;
          cr.trunk_len = std::max(cr.trunk_len, r.hi - r.lo);
        } else {
          cr.branch_len = std::max(cr.branch_len, r.hi - r.lo);
        }
      }
      channels.push_back(cr);
      i = cr.end;
    }
  }

  // Dirty set of the current round: slot → dirty bits.
  auto& dirty_bits = scratch.dirty_bits;
  auto& dirty = scratch.dirty;
  dirty_bits.assign(slot_count, 0);
  dirty.clear();
  auto mark = [&](std::int32_t s, char bit) {
    char& bits = dirty_bits[static_cast<std::size_t>(s)];
    if (bits == 0) dirty.push_back(s);
    bits = static_cast<char>(bits | bit);
  };
  // Lazy branch tier (DESIGN.md §5): while the top is a trunk, the density
  // halves of branch candidates are left stale and this flag is set; the
  // first branch top re-keys them all from fresh spans.
  bool branch_stale = false;
  // First round: every deletable candidate gets its full key, except that
  // branches wait for their density halves. Slots are pushed directly, so
  // one with no half to compute (bits 0) still gets its first key.
  for (std::int32_t s = 0; s < index.slot_count(); ++s) {
    const RoutingGraph& g = *graphs_[index.net(s)];
    if (!g.graph().edge_alive(index.edge(s)) || g.is_bridge(index.edge(s))) {
      continue;
    }
    const bool density = options_.use_density_criteria;
    const bool lazy = density && branch[static_cast<std::size_t>(s)] != 0;
    branch_stale = branch_stale || lazy;
    dirty.push_back(s);
    dirty_bits[static_cast<std::size_t>(s)] = static_cast<char>(
        (density && !lazy ? kDensityDirty | kSpanDirty : 0) |
        (delay_active[static_cast<std::size_t>(s)] != 0 ? kDelayDirty : 0));
  }

  // The density half of a candidate: its channel aggregates (always
  // current) minus its cached span aggregates, re-read for the charts
  // flagged in `span` (kTotalSpanDirty, kBridgeSpanDirty). A feedthrough
  // edge touches both adjacent channels at one column and is scored
  // against the more critical of the two.
  auto reread = [&](ChannelRef& r, char span) {
    const IntInterval columns{r.lo, r.hi};
    if ((span & kTotalSpanDirty) != 0) {
      const ChartSpanParams p = density_->total_span_params(r.channel, columns);
      r.span.d_max = p.max;
      r.span.nd_max = p.at_max;
    }
    if ((span & kBridgeSpanDirty) != 0) {
      const ChartSpanParams p =
          density_->bridge_span_params(r.channel, columns);
      r.span.d_min = p.max;
      r.span.nd_min = p.at_max;
    }
  };
  auto fill_density_half = [&](std::int32_t s, char span, SelectionKey& key) {
    const SlotRefs& sr = slot_refs[static_cast<std::size_t>(s)];
    ChannelRef& own = refs[static_cast<std::size_t>(sr.own)];
    ChannelRef* above =
        sr.above < 0 ? nullptr : &refs[static_cast<std::size_t>(sr.above)];
    if (span != 0) {
      ++tally.span_reads;
      reread(own, span);
      if (above != nullptr) reread(*above, span);
    }
    fill_density_tiers(density_->channel_params(own.channel), own.span, key);
    if (above == nullptr) return;
    SelectionKey hi = key;
    fill_density_tiers(density_->channel_params(above->channel), above->span,
                       hi);
    const bool lo_worse = key.f_min != hi.f_min ? key.f_min < hi.f_min
                                                : key.f_max < hi.f_max;
    if (!lo_worse) key = hi;
  };

  // Re-keys the dirty set: recomputes exactly the flagged halves, keeps the
  // rest (and the static tiers) from the cached key, and tallies what the
  // re-key cost.
  auto flush = [&]() {
    for (const std::int32_t s : dirty) {
      char& bits = dirty_bits[static_cast<std::size_t>(s)];
      const bool density = (bits & kDensityDirty) != 0;
      const auto span = static_cast<char>(bits & kSpanDirty);
      const bool delay = (bits & kDelayDirty) != 0;
      bits = 0;
      if (density && !delay && index.live(s)) {
        // Only the density tiers move: patch them in place.
        SelectionKey tiers;
        fill_density_half(s, span, tiers);
        ++tally.misses;
        tally.hits += delay_active[static_cast<std::size_t>(s)] != 0 ? 1 : 0;
        index.set_density(s, tiers);
        continue;
      }
      const SelectionKey cached = index.key(s);
      SelectionKey key = cached;
      const NetId net = index.net(s);
      const std::int32_t edge = index.edge(s);
      if (!index.live(s)) {
        const RouteEdgeInfo& info = graphs_[net]->edge_info(edge);
        key.neg_length = -info.length_um;
        key.branch = info.is_trunk() ? 0 : 1;
      }
      if (density) fill_density_half(s, span, key);
      if (delay) fill_delay_half(net, edge, key);
      tally.misses += (density ? 1 : 0) + (delay ? 1 : 0);
      tally.delay_evals += delay ? 1 : 0;
      if (index.live(s)) {
        tally.hits +=
            (!density && options_.use_density_criteria ? 1 : 0) +
            (!delay && delay_active[static_cast<std::size_t>(s)] != 0 ? 1 : 0);
        if (key == cached) continue;  // keeps its place in the tree
      }
      index.set_key(s, key);
    }
    dirty.clear();
  };
  // Re-keys every live branch candidate from fresh spans: the stale
  // density halves become current.
  auto refresh_branches = [&]() {
    for (std::int32_t s = 0; s < index.slot_count(); ++s) {
      if (branch[static_cast<std::size_t>(s)] != 0 && index.live(s)) {
        mark(s, kDensityDirty | kSpanDirty);
      }
    }
    branch_stale = false;
    flush();
  };

  // Marks the live refs of refs[first, last), ascending by span start,
  // whose density halves a commit moved. `windows` holds the commit's
  // merged intervals of the total chart and of the bridge chart (ranges
  // of `changes`) with their span bits. When the channel aggregates
  // moved (`all`), every ref re-keys, re-reading the charts it overlaps;
  // otherwise only the overlapping refs re-key, found per chart.
  struct Window {
    std::size_t begin;
    std::size_t end;
    char bit;
  };
  auto& changes = scratch.changes;
  auto mark_refs = [&](std::size_t first, std::size_t last,
                       std::int32_t max_len, bool all,
                       const std::array<Window, 2>& windows) {
    if (all) {
      // One pass: refs ascend by start, so the first interval of a chart
      // ending at or after a ref's start only moves forward.
      std::array<std::size_t, 2> k = {windows[0].begin, windows[1].begin};
      for (std::size_t i = first; i < last; ++i) {
        const ChannelRef& r = refs[i];
        if (!index.live(r.slot)) continue;
        char bits = kDensityDirty;
        for (std::size_t w = 0; w < windows.size(); ++w) {
          while (k[w] < windows[w].end && changes[k[w]].span.hi < r.lo) ++k[w];
          if (k[w] < windows[w].end && changes[k[w]].span.lo <= r.hi) {
            bits = static_cast<char>(bits | windows[w].bit);
          }
        }
        mark(r.slot, bits);
      }
      return;
    }
    const auto begin = refs.begin() + static_cast<std::ptrdiff_t>(first);
    const auto end = refs.begin() + static_cast<std::ptrdiff_t>(last);
    for (const Window& window : windows) {
      for (std::size_t k = window.begin; k < window.end; ++k) {
        const IntInterval span = changes[k].span;
        auto r = std::lower_bound(
            begin, end, span.lo - max_len,
            [](const ChannelRef& a, std::int32_t b) { return a.lo < b; });
        for (; r != end && r->lo <= span.hi; ++r) {
          if (r->hi >= span.lo && index.live(r->slot)) {
            mark(r->slot, static_cast<char>(kDensityDirty | window.bit));
          }
        }
      }
    }
  };

  auto& versions = scratch.versions;
  for (std::int64_t round = 0;; ++round) {
    if (round % kCancelPollCommits == 0) {
      poll_cancel(options_, "the next edge deletion");
    }
    flush();
    // A NaN tier makes the order non-transitive, so a stale key could
    // change the winner: from the first NaN key on, every key is fresh.
    if (branch_stale && index.nan_keys() > 0) refresh_branches();
    std::int32_t best = index.top();
    if (best >= 0 && branch_stale && branch[static_cast<std::size_t>(best)] != 0) {
      // The stale keys differ from the fresh ones only below the branch
      // tier, so they could not have beaten a trunk top; a branch top
      // needs them fresh.
      ++tally.branch_flushes;
      refresh_branches();
      best = index.top();
    }
    if (best < 0) {
      tally.nan_keys = index.nan_keys();
      break;
    }
    const NetId net = index.net(best);
    const std::int32_t edge = index.edge(best);
    const SelectionKey key = index.key(best);
    const Net& n = netlist_.net(net);
    versions.clear();
    if (options_.use_constraints) {
      auto snapshot = [&](NetId member) {
        for (const ConstraintId p : analyzer_->constraints_of_net(member)) {
          versions.emplace_back(p, analyzer_->version(p));
        }
      };
      snapshot(net);
      if (n.is_differential()) snapshot(n.diff_partner);
    }
    // A net under no constraint (nor its shadow) feeds no key and no
    // timing state: its estimate only has to be right when the loop ends.
    NetSlots& own = *slots_of(net);
    const bool defer = !timing_active_for(net) &&
                       !(n.is_differential() &&
                         timing_active_for(n.diff_partner));
    own.stale = own.stale || defer;
    changes.clear();
    apply_delete(net, edge, defer, changes);
    on_commit(net, edge, key);

    // The committed net: the deleted edge, its pruned tail and the newly
    // bridged survivors leave the index; every other candidate's delay
    // half reads the new estimate.
    own.round = round;
    const RoutingGraph& g = *graphs_[net];
    const bool own_delay = delay_half_active(net);
    for (std::int32_t k = own.begin; k < own.end; ++k) {
      const std::int32_t s = slot_of[static_cast<std::size_t>(k)];
      if (!index.live(s)) continue;
      if (!g.graph().edge_alive(index.edge(s)) || g.is_bridge(index.edge(s))) {
        index.remove(s);
      } else if (own_delay) {
        mark(s, kDelayDirty);
      }
    }
    // Constraints whose timing moved: the delay halves of all their nets.
    for (const auto& [p, version] : versions) {
      if (analyzer_->version(p) == version) continue;
      for (const NetId member : analyzer_->nets_of_constraint(p)) {
        NetSlots* ns = slots_of(primary_of(member));
        if (ns == nullptr || ns->round == round) continue;
        ns->round = round;
        for (std::int32_t k = ns->begin; k < ns->end; ++k) {
          const std::int32_t s = slot_of[static_cast<std::size_t>(k)];
          if (index.live(s)) mark(s, kDelayDirty);
        }
      }
    }
    // Density: the candidates whose span overlaps a changed interval
    // re-read that chart's span aggregates; when the channel aggregates
    // moved, every other candidate of the channel re-keys from its cached
    // ones. After a trunk commit the branch ranges wait (lazy tier).
    const bool lazy = branch[static_cast<std::size_t>(best)] == 0 &&
                      index.nan_keys() == 0;
    std::sort(changes.begin(), changes.end(),
              [](const DensityChange& a, const DensityChange& b) {
                if (a.channel != b.channel) return a.channel < b.channel;
                if (a.bridge != b.bridge) return b.bridge;
                return a.span.lo < b.span.lo;
              });
    for (std::size_t i = 0; i < changes.size();) {
      const std::int32_t c = changes[i].channel;
      // Merge each chart's changes of the channel in place into disjoint
      // intervals, ascending by start and therefore by end.
      std::array<Window, 2> windows = {Window{i, i, kTotalSpanDirty},
                                       Window{i, i, kBridgeSpanDirty}};
      std::size_t next = i;
      for (Window& window : windows) {
        const bool bridge = window.bit == kBridgeSpanDirty;
        window.begin = window.end = next;
        for (; next < changes.size() && changes[next].channel == c &&
               changes[next].bridge == bridge;
             ++next) {
          const IntInterval span = changes[next].span;
          if (window.end > window.begin &&
              span.lo <= changes[window.end - 1].span.hi) {
            IntInterval& last = changes[window.end - 1].span;
            last.hi = std::max(last.hi, span.hi);
          } else {
            changes[window.end++].span = span;
          }
        }
      }
      const auto it = std::lower_bound(
          channels.begin(), channels.end(), c,
          [](const ChannelRefs& a, std::int32_t b) { return a.channel < b; });
      if (it != channels.end() && it->channel == c) {
        const ChannelDensityParams& now = density_->channel_params(c);
        const bool moved = now != it->seen;
        it->seen = now;
        mark_refs(it->begin, it->mid, it->trunk_len, moved, windows);
        if (!lazy) {
          mark_refs(it->mid, it->end, it->branch_len, moved, windows);
        } else if (it->mid != it->end) {
          branch_stale = true;
        }
      }
      i = next;
    }
  }
  for (const NetSlots& ns : nets) {
    if (!ns.stale) continue;
    auto refresh = [&](NetId member) {
      graphs_[member]->refresh_search_cache();
      refresh_net_estimate(member);
    };
    refresh(ns.net);
    const Net& n = netlist_.net(ns.net);
    if (n.is_differential()) refresh(n.diff_partner);
  }
  return tally;
}

void GlobalRouter::decompose(const std::vector<Candidate>& candidates) {
  // Footprints of the nets that still own deletable edges. A net whose
  // graph is already a tree neither reads nor writes anything in the loop,
  // so it joins no shard (and cannot glue otherwise-independent components
  // together).
  std::vector<ShardNetInfo> infos;
  IdVector<NetId, std::int32_t> info_of;
  info_of.assign(static_cast<std::size_t>(netlist_.net_count()), -1);
  for (const Candidate& c : candidates) {
    if (info_of[c.net] >= 0) continue;
    info_of[c.net] = static_cast<std::int32_t>(infos.size());
    ShardNetInfo info;
    info.net = c.net;
    auto add_member = [&](NetId member) {
      // Channels of *all* alive edges, not just the current candidates:
      // pruned tails and freshly re-flagged bridges update density on any
      // of them, and candidate scoring reads the channel-wide aggregates.
      const RoutingGraph& g = *graphs_[member];
      for (const auto e : g.alive_edges()) {
        const RouteEdgeInfo& ei = g.edge_info(e);
        info.channels.push_back(ei.channel);
        if (ei.kind == RouteEdgeKind::kFeed) {
          info.channels.push_back(ei.channel + 1);
        }
      }
      if (options_.use_constraints) {
        for (const ConstraintId p : analyzer_->constraints_of_net(member)) {
          info.constraints.push_back(p.index());
        }
      }
    };
    add_member(c.net);
    const Net& n = netlist_.net(c.net);
    if (n.is_differential()) add_member(n.diff_partner);
    auto uniq = [](std::vector<std::int32_t>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    uniq(info.channels);
    uniq(info.constraints);
    infos.push_back(std::move(info));
  }

  shards_ = compute_shards(std::move(infos), density_->channel_count(),
                           analyzer_->constraint_count());
  if (shards_.shard_count() <= 1) return;
  // The §3.5 passes keep the decomposition: a re-route resets its graph to
  // the footprint above, so nets of different shards still never interact.
  net_shard_.assign(static_cast<std::size_t>(netlist_.net_count()),
                    shards_.shard_count());
  for (std::size_t i = 0; i < shards_.nets.size(); ++i) {
    net_shard_[shards_.nets[i].net] = shards_.shard_of[i];
  }
  tree_epochs_.assign(static_cast<std::size_t>(shards_.shard_count()) + 1,
                      tree_epochs_.front());
}

void GlobalRouter::absorb_timing_slots() {
  for (auto& slot : timing_slots_) analyzer_->absorb(slot);
}

void GlobalRouter::run_sharded_deletion(
    const std::vector<Candidate>& candidates, PhaseStats& stats) {
  const auto shard_count = static_cast<std::size_t>(shards_.shard_count());
  std::vector<std::vector<Candidate>> per_shard(shard_count);
  for (const Candidate& c : candidates) {
    per_shard[static_cast<std::size_t>(net_shard_[c.net])].push_back(c);
  }

  // Each worker runs the exact serial greedy over its shard, recording
  // every commit with the key it was selected under. Cross-shard state is
  // disjoint, so that key equals the key the unsharded global loop would
  // see at the step where it commits the same edge — which is what makes
  // the replay below a faithful reconstruction of the serial order.
  struct CommitRec {
    NetId net;
    std::int32_t edge;
    SelectionKey key;  // key at selection == key at global commit time
  };
  std::vector<std::vector<CommitRec>> logs(shard_count);
  std::vector<SelectionTally> tallies(shard_count);
  const std::vector<std::size_t> order = largest_first(per_shard);
  parallel_for(
      *exec_, static_cast<std::int64_t>(shard_count),
      [&](std::int64_t c) {
        const std::size_t i = order[static_cast<std::size_t>(c)];
        std::vector<CommitRec>& log = logs[i];
        tallies[i] = select_and_delete(
            per_shard[i], scratch_for_thread(),
            [&log](NetId net, std::int32_t edge, const SelectionKey& key) {
              log.push_back(CommitRec{net, edge, key});
            });
        shards_.commits[i] = static_cast<std::int64_t>(log.size());
      },
      /*grain=*/1);
  for (const SelectionTally& tally : tallies) fold_tally(tally);

  // Canonical replay: k-way merge of the shard logs, always advancing the
  // best *front*. The serial loop's next commit is the minimum over all
  // candidates; within a shard that minimum is the shard's own next local
  // commit (nothing outside the shard can change its keys), so the global
  // minimum is the best front. Comparing fronts — never sorting whole
  // logs, since a shard's key sequence is not monotone — reproduces the
  // serial commit order exactly, and with it the observer call sequence
  // and stats.
  struct HeapEntry {
    SelectionKey key;
    const std::string* name;
    std::int32_t edge;
    std::int32_t shard;
  };
  auto better = [&](const HeapEntry& a, const HeapEntry& b) {
    return compare_selection(a.key, *a.name, a.edge, b.key, *b.name, b.edge,
                             order_) < 0;
  };
  // std::push_heap keeps the comparator's greatest on top; invert.
  auto heap_cmp = [&](const HeapEntry& a, const HeapEntry& b) {
    return better(b, a);
  };
  std::vector<HeapEntry> heap;
  std::vector<std::size_t> pos(shard_count, 0);
  auto push_front = [&](std::int32_t s) {
    const auto& log = logs[static_cast<std::size_t>(s)];
    const std::size_t i = pos[static_cast<std::size_t>(s)];
    if (i >= log.size()) return;
    heap.push_back(HeapEntry{log[i].key, &netlist_.net(log[i].net).name,
                             log[i].edge, s});
    std::push_heap(heap.begin(), heap.end(), heap_cmp);
  };
  for (std::size_t s = 0; s < shard_count; ++s) {
    push_front(static_cast<std::int32_t>(s));
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    const std::int32_t s = heap.back().shard;
    heap.pop_back();
    const CommitRec& rec =
        logs[static_cast<std::size_t>(s)][pos[static_cast<std::size_t>(s)]++];
    record_commit(rec.net, rec.edge, stats);
    route_metrics().shard_commits.add(1);
    push_front(s);
  }
}

void GlobalRouter::compute_net_budgets() {
  // Huang-style budgeting: every net starts from its current (full
  // candidate graph, i.e. near-minimal) wiring delay and receives an even
  // share of each constraint's margin, divided by the number of nets on
  // that constraint's critical path. Nets under several constraints keep
  // the tightest budget.
  net_budget_ps_.assign(static_cast<std::size_t>(netlist_.net_count()),
                        std::numeric_limits<double>::infinity());
  for (const ConstraintId p : analyzer_->constraints()) {
    const auto path_nets = analyzer_->critical_path_nets(p);
    const double share =
        std::max(0.0, analyzer_->margin_ps(p)) /
        std::max<std::size_t>(path_nets.size(), 1);
    for (const NetId n : analyzer_->nets_of_constraint(p)) {
      const double budget = delay_graph_->net_arc_delay(n) + share;
      net_budget_ps_[n] = std::min(net_budget_ps_[n], budget);
    }
  }
}

DelayCriteria GlobalRouter::budget_criteria(NetId net,
                                            double new_arc_delay_ps) const {
  DelayCriteria out;
  const double budget = net_budget_ps_.at(net);
  if (!std::isfinite(budget)) return out;
  const double d_cur = delay_graph_->net_arc_delay(net);
  const double margin_new = budget - new_arc_delay_ps;
  const double margin_cur = budget - d_cur;
  if (margin_new <= 0.0) ++out.critical_count;
  const double scale = std::max(budget, 1.0);
  out.global_delay = penalty(margin_new, scale) - penalty(margin_cur, scale);
  out.local_delay = new_arc_delay_ps - d_cur;
  return out;
}

void GlobalRouter::initial_routing(PhaseStats& stats) {
  if (!options_.concurrent_initial) {
    // Sequential baseline: slack-ordered net-at-a-time reduction.
    const auto slacks = analyzer_->net_slacks();
    std::vector<NetId> order;
    for (const NetId n : netlist_.nets()) {
      const Net& net = netlist_.net(n);
      if (net.is_differential() && !net.diff_primary) continue;
      order.push_back(n);
    }
    std::stable_sort(order.begin(), order.end(), [&](NetId a, NetId b) {
      if (slacks.at(a) != slacks.at(b)) return slacks.at(a) < slacks.at(b);
      // Names, not ids: relabeling-invariant order (natural_order.hpp).
      return natural_less(netlist_.net(a).name, netlist_.net(b).name);
    });
    std::vector<std::int32_t> committed;
    for (const NetId n : order) {
      committed.clear();
      fold_tally(reduce_net_to_tree(n, committed));
      for (const std::int32_t e : committed) record_commit(n, e, stats);
    }
    return;
  }

  std::vector<Candidate> candidates;
  for (const NetId n : netlist_.nets()) {
    const Net& net = netlist_.net(n);
    if (net.is_differential() && !net.diff_primary) continue;  // led by primary
    for (const auto e : graphs_[n]->non_bridge_edges()) {
      candidates.push_back(Candidate{n, e});
    }
  }

  decompose(candidates);
  if (options_.shard_deletion) {
    route_metrics().shard_components.add(shards_.shard_count());
    for (const auto& members : shards_.shards) {
      route_metrics().shard_nets.record(
          static_cast<std::int64_t>(members.size()));
    }
    if (shards_.shard_count() > 1) {
      run_sharded_deletion(candidates, stats);
      return;
    }
    // One interaction component: the global loop below *is* that single
    // shard's loop, minus the replay detour.
    route_metrics().shard_fallbacks.add(1);
  }
  // The whole design's buffers: freed when the loop ends.
  SelectionScratch scratch;
  fold_tally(select_and_delete(
      candidates, scratch,
      [&](NetId net, std::int32_t edge, const SelectionKey&) {
        record_commit(net, edge, stats);
      }));
}

GlobalRouter::SelectionTally GlobalRouter::reduce_net_to_tree(
    NetId net, std::vector<std::int32_t>& committed) {
  std::vector<Candidate> candidates;
  for (const auto e : graphs_[net]->non_bridge_edges()) {
    candidates.push_back(Candidate{net, e});
  }
  return select_and_delete(
      candidates, scratch_for_thread(),
      [&](NetId, std::int32_t edge, const SelectionKey&) {
        committed.push_back(edge);
      });
}

NetId GlobalRouter::reroute_net(NetId net, RerouteTally& tally) {
  net = primary_of(net);
  ++tally.reroutes;
  RerouteMemo& memo = reroute_memo_[net];
  std::uint64_t& epoch = tree_epoch(net);
  if (memo.epoch == epoch) {
    // No tree of the net's shard changed since its last executed re-route,
    // so every input it read is unchanged: re-running it would commit the
    // same edges and end on the tree the net already has.
    ++tally.skipped;
    return net;
  }
  const Net& n = netlist_.net(net);
  std::vector<NetId> members{net};
  if (n.is_differential()) members.push_back(n.diff_partner);
  std::vector<std::vector<std::int32_t>> before;
  for (const NetId member : members) {
    before.push_back(graphs_[member]->alive_edges());
    unregister_graph_density(member);
    // The graph's inputs (netlist, placement, assignment) are fixed after
    // setup, so its construction-time state is what a rebuild would give.
    graphs_[member]->reset();
    ++tally.resets;
    register_graph_density(member);
    refresh_net_estimate(member);
  }
  memo.edges.clear();
  tally.selection.add(reduce_net_to_tree(net, memo.edges));
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (graphs_[members[i]]->alive_edges() != before[i]) {
      ++epoch;
      break;
    }
  }
  memo.epoch = epoch;
  return net;
}

void GlobalRouter::RerouteTally::add(const RerouteTally& other) {
  reroutes += other.reroutes;
  skipped += other.skipped;
  resets += other.resets;
  selection.add(other.selection);
}

void GlobalRouter::fold_reroutes(const RerouteTally& tally,
                                 PhaseStats& stats) {
  stats.reroutes += tally.reroutes;
  route_metrics().reroutes.add(tally.reroutes);
  route_metrics().reroutes_skipped.add(tally.skipped);
  route_metrics().graph_resets.add(tally.resets);
  fold_tally(tally.selection);
}

void GlobalRouter::reroute_one(NetId net, PhaseStats& stats) {
  RerouteTally tally;
  const NetId primary = reroute_net(net, tally);
  fold_reroutes(tally, stats);
  for (const std::int32_t e : reroute_memo_[primary].edges) {
    record_commit(primary, e, stats);
  }
}

void GlobalRouter::reroute_in_shards(const std::vector<NetId>& nets,
                                     PhaseStats& stats) {
  if (net_shard_.empty() || !options_.shard_deletion) {
    for (const NetId n : nets) reroute_one(n, stats);
    return;
  }
  // Nets in no shard had no deletable edge when the decomposition was
  // taken, so their re-routes change no tree — but they churn density on
  // channels the shards share, so they run here, before the region.
  const std::size_t shard_count = tree_epochs_.size() - 1;
  std::vector<std::vector<NetId>> per_shard(shard_count);
  RerouteTally tally;
  for (const NetId n : nets) {
    const auto s = static_cast<std::size_t>(net_shard_[primary_of(n)]);
    if (s < shard_count) {
      per_shard[s].push_back(n);
    } else {
      (void)reroute_net(n, tally);
    }
  }
  // Each shard's sublist in list order on one worker: shards share no
  // channel and no constraint, so re-routes of different shards commute
  // and every net sees the state the list order would give it.
  std::vector<RerouteTally> tallies(shard_count);
  const std::vector<std::size_t> order = largest_first(per_shard);
  parallel_for(
      *exec_, static_cast<std::int64_t>(shard_count),
      [&](std::int64_t c) {
        const std::size_t i = order[static_cast<std::size_t>(c)];
        for (const NetId n : per_shard[i]) (void)reroute_net(n, tallies[i]);
      },
      /*grain=*/1);
  for (const RerouteTally& t : tallies) tally.add(t);
  fold_reroutes(tally, stats);
  for (const NetId n : nets) {
    const NetId primary = primary_of(n);
    for (const std::int32_t e : reroute_memo_[primary].edges) {
      record_commit(primary, e, stats);
    }
  }
}

void GlobalRouter::reroute_passes(PhaseStats& stats, const ReroutePass& pass,
                                  const std::function<double()>& cost,
                                  double eps) {
  const auto reroute = [&](NetId net) { reroute_one(net, stats); };
  for (std::int32_t i = 0; i < options_.improvement_passes; ++i) {
    const double before = cost ? cost() : 0.0;
    if (!pass(reroute)) break;
    if (cost && cost() >= before - eps) break;
  }
}

void GlobalRouter::recover_violations(PhaseStats& stats) {
  if (!options_.use_net_budgets) {
    improve_timing(stats, /*violated_only=*/true);
    return;
  }
  // Budget mode: re-route the nets that exceed their own budget, until
  // none does.
  reroute_passes(stats, [&](const std::function<void(NetId)>& visit) {
    std::vector<NetId> over;
    for (const NetId n : netlist_.nets()) {
      if (std::isfinite(net_budget_ps_.at(n)) &&
          delay_graph_->net_arc_delay(n) > net_budget_ps_.at(n)) {
        over.push_back(n);
      }
    }
    for (const NetId n : over) visit(n);
    return !over.empty();
  });
}

void GlobalRouter::improve_timing(PhaseStats& stats, bool violated_only) {
  // Recovery raises the worst margin; delay improvement lowers the total
  // penalty over all constraints.
  const auto cost = [&] {
    if (violated_only) return -analyzer_->worst_margin_ps();
    double sum = 0.0;
    for (const ConstraintId p : analyzer_->constraints()) {
      sum += penalty(analyzer_->margin_ps(p),
                     analyzer_->constraint(p).limit_ps);
    }
    return sum;
  };
  reroute_passes(stats, [&](const std::function<void(NetId)>& visit) {
    std::vector<ConstraintId> order;
    for (const ConstraintId p : analyzer_->constraints()) {
      if (!violated_only || analyzer_->margin_ps(p) < 0.0) order.push_back(p);
    }
    if (order.empty()) return false;
    std::sort(order.begin(), order.end(), [&](ConstraintId a, ConstraintId b) {
      return analyzer_->margin_ps(a) < analyzer_->margin_ps(b);
    });
    for (const ConstraintId p : order) {
      // Fixed along the way: a violated-only pass skips it.
      if (violated_only && analyzer_->margin_ps(p) >= 0.0) continue;
      // Read at the visit: earlier re-routes may have moved the path.
      for (const NetId net : analyzer_->critical_path_nets(p)) {
        visit(net);
      }
    }
    return true;
  }, cost, 1e-9);
}

void GlobalRouter::improve_area(PhaseStats& stats) {
  const CriteriaOrder saved = order_;
  order_ = CriteriaOrder::kAreaFirst;  // every reroute keys afresh
  // Per net: the densest point its trunks run over when one of them
  // reaches its channel's maximum, else -1.
  std::vector<std::int32_t> congestion(
      static_cast<std::size_t>(netlist_.net_count()));
  reroute_passes(stats, [&](const std::function<void(NetId)>&) {
    // The scan only reads, so the nets are scanned concurrently.
    parallel_for(*exec_, netlist_.net_count(), [&](std::int64_t i) {
      const NetId n{static_cast<std::int32_t>(i)};
      const Net& net = netlist_.net(n);
      std::int32_t& out = congestion[static_cast<std::size_t>(i)];
      out = -1;
      if (net.is_differential() && !net.diff_primary) return;
      const RoutingGraph& g = *graphs_[n];
      std::int32_t best = 0;
      bool at_peak = false;
      for (const auto e : g.alive_edges()) {
        const RouteEdgeInfo& info = g.edge_info(e);
        if (!info.is_trunk()) continue;
        const std::int32_t d_max =
            density_->total_span_params(info.channel, info.span).max;
        best = std::max(best, d_max);
        at_peak = at_peak || d_max == density_->channel_params(info.channel).c_max;
      }
      if (at_peak) out = best;
    });
    // Nets running through the most congested points, most congested first.
    std::vector<NetId> nets;
    for (const NetId n : netlist_.nets()) {
      if (congestion[static_cast<std::size_t>(n.index())] >= 0) {
        nets.push_back(n);
      }
    }
    std::stable_sort(nets.begin(), nets.end(), [&](NetId a, NetId b) {
      const std::int32_t ca = congestion[static_cast<std::size_t>(a.index())];
      const std::int32_t cb = congestion[static_cast<std::size_t>(b.index())];
      if (ca != cb) return ca > cb;
      // Name tie-break: relabeling-invariant order.
      return netlist_.net(a).name < netlist_.net(b).name;
    });
    reroute_in_shards(nets, stats);
    return !nets.empty();
  }, [&] { return static_cast<double>(density_->sum_max_density()); });
  order_ = saved;
}

void GlobalRouter::run_phase(const std::string& name, bool enabled,
                             const std::function<void(PhaseStats&)>& body,
                             RouteOutcome& outcome) {
  poll_cancel(options_, name);
  for (std::uint64_t& epoch : tree_epochs_) ++epoch;  // no memo crosses a phase
  PhaseStats stats;
  stats.name = name;
  ScopedSpan span(name, "phase");
  const ExecStats exec_before = exec_->stats();
  absorb_timing_slots();  // set-up updates: graph build, refine's estimates
  const StaStats sta_before = analyzer_->sta_stats();
  const PathSearchStats path_before = path_engine_->stats();
  Stopwatch watch;
  if (enabled) body(stats);
  stats.seconds = watch.seconds();
  absorb_timing_slots();
  stats.exec_regions = exec_->stats().regions - exec_before.regions;
  stats.exec_chunks = exec_->stats().chunks - exec_before.chunks;
  const StaStats& sta = analyzer_->sta_stats();
  stats.sta_updates = sta.incremental_updates - sta_before.incremental_updates;
  stats.sta_dirty_vertices = sta.dirty_vertices - sta_before.dirty_vertices;
  stats.sta_relaxations = sta.relaxations() - sta_before.relaxations();
  const PathSearchStats path = path_engine_->stats();
  stats.path_searches = path.searches - path_before.searches;
  stats.path_pops = path.pops - path_before.pops;
  stats.path_relaxations = path.relaxations - path_before.relaxations;
  stats.worst_margin_ps = analyzer_->constraint_count() > 0
                              ? analyzer_->worst_margin_ps()
                              : 0.0;
  stats.critical_delay_ps = delay_graph_->critical_delay_ps();
  stats.sum_max_density = density_->sum_max_density();
  outcome.phases.push_back(stats);
}

void GlobalRouter::finish_outcome(RouteOutcome& outcome) const {
  // Every commit refreshed its net's estimate and timing, so the delay
  // graph and the analyzer already hold the final state.
  double total_um = 0.0;
  for (const NetId n : netlist_.nets()) {
    BGR_CHECK_MSG(graphs_[n]->is_tree(), "net not reduced to a tree");
    total_um += graphs_[n]->alive_length_um();
  }
  outcome.critical_delay_ps = delay_graph_->critical_delay_ps();
  outcome.total_length_um = total_um;
  outcome.worst_margin_ps =
      analyzer_->constraint_count() > 0 ? analyzer_->worst_margin_ps() : 0.0;
  outcome.violated_constraints =
      static_cast<std::int32_t>(analyzer_->violated().size());
  outcome.feed_cells_added = feed_cells_added_;
  outcome.widen_pitches = widen_pitches_;
}

RouteOutcome GlobalRouter::refine(const IdVector<NetId, double>& extra_um) {
  BGR_CHECK_MSG(run_state_ == RunState::kDone,
                "refine() requires a completed run()");
  BGR_CHECK(extra_um.size() == static_cast<std::size_t>(netlist_.net_count()));
  extra_um_ = extra_um;
  for (const NetId n : netlist_.nets()) {
    refresh_net_estimate(n);
  }
  analyzer_->update_all();

  RouteOutcome outcome;
  run_phase("refine_recover",
            options_.use_constraints && options_.enable_violation_recovery,
            [&](PhaseStats& s) { recover_violations(s); }, outcome);
  run_phase("refine_delay",
            options_.use_constraints && options_.enable_delay_improvement,
            [&](PhaseStats& s) { improve_timing(s, false); }, outcome);
  run_phase("refine_area", options_.enable_area_improvement,
            [&](PhaseStats& s) { improve_area(s); }, outcome);
  finish_outcome(outcome);
  return outcome;
}

RouteOutcome GlobalRouter::reroute(const std::vector<NetId>& nets) {
  BGR_CHECK_MSG(run_state_ == RunState::kDone,
                "reroute() requires a completed run()");
  RouteOutcome outcome;
  run_phase("eco_reroute", true, [&](PhaseStats& s) {
    for (const NetId n : nets) {
      reroute_one(n, s);
    }
  }, outcome);
  finish_outcome(outcome);
  return outcome;
}

RouteOutcome GlobalRouter::run() {
  BGR_CHECK_MSG(run_state_ == RunState::kIdle,
                "GlobalRouter::run() is single-shot: this router "
                    << (run_state_ == RunState::kDone
                            ? "already completed a run"
                            : "is mid-run or its run failed/was cancelled")
                    << "; construct a fresh GlobalRouter (or use "
                       "serve::RoutingSession, which is re-runnable)");
  run_state_ = RunState::kRunning;
  poll_cancel(options_, "netlist validation");
  {
    ScopedSpan span("validate", "setup");
    netlist_.validate();
  }

  // §3.1: net ordering by static slack (zero interconnection capacitance —
  // caps are zero-initialised), then external pin & feedthrough assignment
  // with feed-cell insertion (§4.3), which polls cancel before each round.
  IdVector<NetId, double> slacks;
  {
    ScopedSpan span("sta_init", "setup");
    delay_graph_ = std::make_unique<DelayGraph>(netlist_);
    analyzer_ = std::make_unique<TimingAnalyzer>(
        *delay_graph_,
        options_.use_constraints ? constraints_ : std::vector<PathConstraint>{},
        options_.incremental_sta);
    for (std::int32_t i = 0; i < exec_->thread_count(); ++i) {
      timing_slots_.emplace_back(*analyzer_);
    }
    slacks = analyzer_->net_slacks();
  }
  auto pipeline = run_assignment_pipeline(netlist_, placement_, slacks,
                                          options_.cancel_requested);
  assignment_ =
      std::make_unique<FeedthroughAssignment>(std::move(pipeline.assignment));
  feed_cells_added_ = pipeline.feed_cells_added;
  widen_pitches_ = pipeline.widen_pitches;
  route_metrics().feed_cells.add(feed_cells_added_);
  route_metrics().widen_pitches.add(widen_pitches_);

  poll_cancel(options_, "routing-graph construction");
  density_ = std::make_unique<DensityMap>(placement_.channel_count(),
                                          placement_.width());
  build_all_graphs();
  if (options_.use_constraints && options_.use_net_budgets) {
    compute_net_budgets();
  }

  RouteOutcome outcome;
  run_phase("initial", true, [&](PhaseStats& s) { initial_routing(s); },
            outcome);
  run_phase("recover_violate",
            options_.use_constraints && options_.enable_violation_recovery,
            [&](PhaseStats& s) { recover_violations(s); }, outcome);
  run_phase("improve_delay",
            options_.use_constraints && options_.enable_delay_improvement,
            [&](PhaseStats& s) { improve_timing(s, false); }, outcome);
  run_phase("improve_area", options_.enable_area_improvement,
            [&](PhaseStats& s) { improve_area(s); }, outcome);
  finish_outcome(outcome);
  run_state_ = RunState::kDone;
  return outcome;
}

}  // namespace bgr
