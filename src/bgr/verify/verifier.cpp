#include "bgr/verify/verifier.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "bgr/obs/trace.hpp"

namespace bgr {
namespace {

void add(std::vector<VerifyIssue>& out, VerifyIssue::Severity severity,
         const std::string& check, const std::string& message) {
  out.push_back(VerifyIssue{severity, check, message});
}

using SegmentPair = std::pair<std::size_t, std::size_t>;

/// Every pair (i, j), i < j, of segments sharing a track and a column,
/// sorted. Sweeps the segments by span start; the live ones sit in a set
/// keyed by track, so each segment probes only the tracks a segment of at
/// most `max_width` tracks could share with it, dropping the ones whose
/// span ended left of the sweep as it meets them. On a legal plan the
/// live segments are track-disjoint and a probe visits O(width) of them.
/// Needs every width ≥ 1 (a segment carries its net's pitch width).
std::vector<SegmentPair> overlapping_pairs(
    const std::vector<ChannelSegment>& segments) {
  std::vector<std::size_t> order(segments.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return std::make_pair(segments[x].span.lo, x) <
           std::make_pair(segments[y].span.lo, y);
  });
  std::int32_t max_width = 1;
  for (const ChannelSegment& seg : segments) {
    max_width = std::max(max_width, seg.width);
  }
  std::vector<SegmentPair> pairs;
  std::set<std::pair<std::int32_t, std::size_t>> live;  // (track, index)
  for (const std::size_t i : order) {
    const ChannelSegment& a = segments[i];
    for (auto it = live.lower_bound({a.track - max_width + 1, 0});
         it != live.end() && it->first < a.track + a.width;) {
      const ChannelSegment& b = segments[it->second];
      if (b.span.hi < a.span.lo) {  // ended; no later segment reaches it
        it = live.erase(it);
        continue;
      }
      const bool tracks_overlap =
          a.track < b.track + b.width && b.track < a.track + a.width;
      if (tracks_overlap && a.span.overlaps(b.span)) {
        pairs.emplace_back(std::min(i, it->second), std::max(i, it->second));
      }
      ++it;
    }
    live.emplace(a.track, i);
  }
  std::sort(pairs.begin(), pairs.end());  // each pair was found once
  return pairs;
}

}  // namespace

void check_channel_tracks(const Netlist& nl, std::int32_t channel,
                          const ChannelPlan& plan,
                          std::span<const ChannelTrunk> trunks,
                          std::vector<VerifyIssue>& out) {
  const std::vector<ChannelSegment>& segments = plan.segments;
  // Track range and overlaps, interleaved per segment in plan order.
  const std::vector<SegmentPair> pairs = overlapping_pairs(segments);
  auto next_pair = pairs.begin();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const ChannelSegment& a = segments[i];
    if (a.track < 1 || a.track + a.width - 1 > plan.tracks) {
      add(out, VerifyIssue::Severity::kError, "tracks",
          "segment of net " + nl.net(a.net).name + " outside channel " +
              std::to_string(channel));
    }
    for (; next_pair != pairs.end() && next_pair->first == i; ++next_pair) {
      add(out, VerifyIssue::Severity::kError, "tracks",
          "nets " + nl.net(a.net).name + " and " +
              nl.net(segments[next_pair->second].net).name +
              " overlap in channel " + std::to_string(channel));
    }
  }
  // Coverage: a trunk needs a segment of its own net containing its span.
  std::vector<std::size_t> by_net(segments.size());
  std::iota(by_net.begin(), by_net.end(), std::size_t{0});
  std::sort(by_net.begin(), by_net.end(), [&](std::size_t x, std::size_t y) {
    return std::make_pair(segments[x].net, x) <
           std::make_pair(segments[y].net, y);
  });
  for (const ChannelTrunk& trunk : trunks) {
    auto it = std::lower_bound(
        by_net.begin(), by_net.end(), trunk.net,
        [&](std::size_t x, NetId net) { return segments[x].net < net; });
    bool covered = false;
    for (; !covered && it != by_net.end() && segments[*it].net == trunk.net;
         ++it) {
      covered = segments[*it].span.contains(trunk.span);
    }
    if (!covered) {
      add(out, VerifyIssue::Severity::kError, "tracks",
          "trunk of net " + nl.net(trunk.net).name + " in channel " +
              std::to_string(channel) + " not covered by any segment");
    }
  }
}

std::vector<VerifyIssue> RouteVerifier::run() const {
  ScopedSpan span("verify", "verify");
  std::vector<VerifyIssue> out;
  check_trees(out);
  check_geometry(out);
  check_feedthroughs(out);
  check_density(out);
  check_differential(out);
  if (channel_ != nullptr) check_tracks(out);
  return out;
}

void RouteVerifier::check_trees(std::vector<VerifyIssue>& out) const {
  const Netlist& nl = router_.analyzer().delay_graph().netlist();
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router_.net_graph(n);
    if (!g.graph().connects(g.terminal_vertices())) {
      add(out, VerifyIssue::Severity::kError, "tree",
          "net " + nl.net(n).name + " terminals disconnected");
      continue;
    }
    if (g.graph().alive_edge_count() != g.graph().alive_vertex_count() - 1) {
      add(out, VerifyIssue::Severity::kError, "tree",
          "net " + nl.net(n).name + " is not a tree (edges " +
              std::to_string(g.graph().alive_edge_count()) + ", vertices " +
              std::to_string(g.graph().alive_vertex_count()) + ")");
    }
    // Every leaf must be a terminal (no dangling wire).
    for (std::int32_t v = 0; v < g.graph().vertex_count(); ++v) {
      if (!g.graph().vertex_alive(v)) continue;
      if (g.graph().degree(v) <= 1 &&
          g.vertex_info(v).kind != RouteVertexKind::kTerminal) {
        add(out, VerifyIssue::Severity::kWarning, "tree",
            "net " + nl.net(n).name + " has a dangling branch at vertex " +
                std::to_string(v));
      }
    }
  }
}

void RouteVerifier::check_geometry(std::vector<VerifyIssue>& out) const {
  const Netlist& nl = router_.analyzer().delay_graph().netlist();
  const Placement& pl = router_.placement();
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router_.net_graph(n);
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      const bool channel_ok =
          info.channel >= 0 && info.channel < pl.channel_count();
      const bool span_ok = !info.span.empty() && info.span.lo >= 0 &&
                           info.span.hi < pl.width();
      if (!channel_ok || !span_ok) {
        std::ostringstream oss;
        oss << "net " << nl.net(n).name << " edge " << e << " at channel "
            << info.channel << " span [" << info.span.lo << ","
            << info.span.hi << "] outside the chip";
        add(out, VerifyIssue::Severity::kError, "geometry", oss.str());
      }
    }
  }
}

void RouteVerifier::check_feedthroughs(std::vector<VerifyIssue>& out) const {
  const Netlist& nl = router_.analyzer().delay_graph().netlist();
  const Placement& pl = router_.placement();
  // (row, column) → owning net; differential shadows share their primary's
  // group, and a w-pitch crossing owns w adjacent columns.
  std::map<std::pair<std::int32_t, std::int32_t>, NetId> owner;
  for (const NetId n : nl.nets()) {
    const Net& net = nl.net(n);
    const RoutingGraph& g = router_.net_graph(n);
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      if (info.kind != RouteEdgeKind::kFeed) continue;
      const std::int32_t row = info.channel;  // crossing row == lower channel
      for (std::int32_t k = 0; k < net.pitch_width; ++k) {
        const std::int32_t col = info.span.lo + k;
        if (pl.column_blocked(RowId{row}, col)) {
          add(out, VerifyIssue::Severity::kError, "feedthrough",
              "net " + net.name + " crosses row " + std::to_string(row) +
                  " at blocked column " + std::to_string(col));
        }
        const auto key = std::make_pair(row, col);
        const auto it = owner.find(key);
        const NetId primary =
            net.is_differential() && !net.diff_primary ? net.diff_partner : n;
        if (it != owner.end() && it->second != primary &&
            it->second != n) {
          // A differential shadow one column right of its primary is legal.
          const Net& other = nl.net(it->second);
          const bool paired = other.is_differential() &&
                              (other.diff_partner == n ||
                               other.diff_partner == primary);
          if (!paired) {
            add(out, VerifyIssue::Severity::kError, "feedthrough",
                "nets " + other.name + " and " + net.name +
                    " share feedthrough column " + std::to_string(col) +
                    " in row " + std::to_string(row));
          }
        } else {
          owner[key] = primary;
        }
      }
    }
  }
}

void RouteVerifier::check_density(std::vector<VerifyIssue>& out) const {
  const Netlist& nl = router_.analyzer().delay_graph().netlist();
  const DensityMap& incremental = router_.density();
  DensityMap fresh(router_.placement().channel_count(),
                   router_.placement().width());
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router_.net_graph(n);
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      if (!info.is_trunk()) continue;
      fresh.add_total(info.channel, info.span, nl.net(n).pitch_width);
    }
  }
  for (std::int32_t c = 0; c < fresh.channel_count(); ++c) {
    for (std::int32_t x = 0; x < fresh.width(); ++x) {
      if (incremental.total_at(c, x) != fresh.total_at(c, x)) {
        add(out, VerifyIssue::Severity::kError, "density",
            "density mismatch at channel " + std::to_string(c) + " column " +
                std::to_string(x) + ": incremental " +
                std::to_string(incremental.total_at(c, x)) + " vs recount " +
                std::to_string(fresh.total_at(c, x)));
        return;  // one detailed finding is enough
      }
    }
  }
}

void RouteVerifier::check_differential(std::vector<VerifyIssue>& out) const {
  const Netlist& nl = router_.analyzer().delay_graph().netlist();
  for (const NetId n : nl.nets()) {
    const Net& net = nl.net(n);
    if (!net.is_differential() || !net.diff_primary) continue;
    const RoutingGraph& a = router_.net_graph(n);
    const RoutingGraph& b = router_.net_graph(net.diff_partner);
    if (a.graph().edge_count() != b.graph().edge_count()) {
      add(out, VerifyIssue::Severity::kError, "differential",
          "pair " + net.name + " graphs not homogeneous");
      continue;
    }
    for (std::int32_t e = 0; e < a.graph().edge_count(); ++e) {
      if (a.graph().edge_alive(e) != b.graph().edge_alive(e)) {
        add(out, VerifyIssue::Severity::kError, "differential",
            "pair " + net.name + " diverged at edge " + std::to_string(e));
        break;
      }
      if (a.graph().edge_alive(e) &&
          (a.edge_info(e).span.lo + 1 != b.edge_info(e).span.lo ||
           a.edge_info(e).channel != b.edge_info(e).channel)) {
        add(out, VerifyIssue::Severity::kError, "differential",
            "pair " + net.name + " not mirrored at edge " + std::to_string(e));
        break;
      }
    }
  }
}

void RouteVerifier::check_tracks(std::vector<VerifyIssue>& out) const {
  const Netlist& nl = router_.analyzer().delay_graph().netlist();
  // One pass buckets every trunk edge by channel, in net then edge order.
  std::vector<std::vector<ChannelTrunk>> trunks(
      static_cast<std::size_t>(channel_->channel_count()));
  for (const NetId n : nl.nets()) {
    const RoutingGraph& g = router_.net_graph(n);
    for (const auto e : g.alive_edges()) {
      const RouteEdgeInfo& info = g.edge_info(e);
      if (!info.is_trunk() || info.channel < 0 ||
          info.channel >= channel_->channel_count()) {
        continue;
      }
      trunks[static_cast<std::size_t>(info.channel)].push_back(
          ChannelTrunk{n, info.span});
    }
  }
  for (std::int32_t c = 0; c < channel_->channel_count(); ++c) {
    check_channel_tracks(nl, c, channel_->plan(c),
                         trunks[static_cast<std::size_t>(c)], out);
  }
}

}  // namespace bgr
