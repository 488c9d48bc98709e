#pragma once

#include <span>
#include <string>
#include <vector>

#include "bgr/channel/channel_router.hpp"
#include "bgr/route/router.hpp"

namespace bgr {

/// One verification finding. `kError` findings mean the result is not a
/// legal global routing; `kWarning` findings are quality or consistency
/// observations.
struct VerifyIssue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  std::string check;    // short check identifier
  std::string message;  // human-readable details
};

/// A trunk edge as the track check sees it: its net and column span.
struct ChannelTrunk {
  NetId net;
  IntInterval span;
};

/// The per-channel half of the `tracks` check: `plan` is channel
/// `channel`'s track assignment and `trunks` the trunk edges routed in that
/// channel, in net order and then edge order. Appends, for each segment i
/// in plan order, its out-of-range finding followed by its overlap with
/// every later segment j, ascending; then one finding per trunk no segment
/// of its net contains, in `trunks` order. Overlapping pairs come from a
/// sweep over span starts with the live segments keyed by track, so a
/// legal plan costs O(S log S + T log S) for S segments and T trunks.
/// Segment widths must be ≥ 1, as ChannelStage's pitch widths are.
void check_channel_tracks(const Netlist& nl, std::int32_t channel,
                          const ChannelPlan& plan,
                          std::span<const ChannelTrunk> trunks,
                          std::vector<VerifyIssue>& out);

/// Independent signoff checks over a routed design. The verifier rebuilds
/// every invariant from primary data (netlist, placement, final routing
/// graphs, channel plans) rather than trusting the router's bookkeeping:
///
///   tree            every net is a connected spanning tree of its terminals
///   geometry        every edge lies inside the chip and uses valid channels
///   feedthrough     vertical crossings sit on unblocked columns, w of them
///                   for a w-pitch net, and no two nets share a
///                   feedthrough column in a row
///   density         the incremental density map equals a fresh recount
///   differential    pair members are exact mirrors one column apart
///   tracks          channel segments do not overlap on their tracks and
///                   cover every trunk edge
///
/// tree, geometry and differential are linear in the routed edges; density
/// in the trunk spans plus the channel grid; feedthrough (an ordered owner
/// map) and tracks (sorts and a sweep) add a log factor.
class RouteVerifier {
 public:
  RouteVerifier(const GlobalRouter& router, const ChannelStage* channel)
      : router_(router), channel_(channel) {}

  /// Runs every check; returns all findings (empty = clean).
  [[nodiscard]] std::vector<VerifyIssue> run() const;

  [[nodiscard]] static bool has_errors(const std::vector<VerifyIssue>& issues) {
    for (const VerifyIssue& issue : issues) {
      if (issue.severity == VerifyIssue::Severity::kError) return true;
    }
    return false;
  }

 private:
  void check_trees(std::vector<VerifyIssue>& out) const;
  void check_geometry(std::vector<VerifyIssue>& out) const;
  void check_feedthroughs(std::vector<VerifyIssue>& out) const;
  void check_density(std::vector<VerifyIssue>& out) const;
  void check_differential(std::vector<VerifyIssue>& out) const;
  void check_tracks(std::vector<VerifyIssue>& out) const;

  const GlobalRouter& router_;
  const ChannelStage* channel_;  // track checks skipped when null
};

}  // namespace bgr
