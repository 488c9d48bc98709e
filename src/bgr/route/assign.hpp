#pragma once

#include <functional>
#include <map>
#include <vector>

#include "bgr/common/ids.hpp"
#include "bgr/layout/feed_insertion.hpp"
#include "bgr/layout/placement.hpp"
#include "bgr/netlist/netlist.hpp"
#include "bgr/route/net_span.hpp"

namespace bgr {

/// Result of the feedthrough assignment (§3.1): for every net, the
/// leftmost grid column of its reserved feedthrough group in each row it
/// may cross. A differential pair occupies a 2-pitch group registered on
/// the primary net; a w-pitch net occupies w adjacent columns.
class FeedthroughAssignment {
 public:
  explicit FeedthroughAssignment(std::int32_t nets)
      : by_net_(static_cast<std::size_t>(nets)) {}

  void set(NetId net, std::int32_t row, std::int32_t column) {
    by_net_.at(net)[row] = column;
  }
  /// Leftmost column of the net's group in this row, or -1 if none.
  [[nodiscard]] std::int32_t column(NetId net, std::int32_t row) const {
    const auto& rows = by_net_.at(net);
    const auto it = rows.find(row);
    return it == rows.end() ? -1 : it->second;
  }
  [[nodiscard]] const std::map<std::int32_t, std::int32_t>& rows(NetId net) const {
    return by_net_.at(net);
  }

 private:
  IdVector<NetId, std::map<std::int32_t, std::int32_t>> by_net_;
};

struct AssignmentOutcome {
  FeedthroughAssignment assignment;
  FeedDemand demand;            // required-row failures F(w, r)
  std::int32_t optional_failures = 0;
  [[nodiscard]] bool complete() const { return !demand.any(); }
};

/// Width of the feedthrough group a net reserves: 2 for the primary member
/// of a differential pair (§4.1), w for w-pitch nets, 0 for differential
/// shadows (covered by their primary).
[[nodiscard]] std::int32_t net_group_width(const Netlist& netlist, NetId net);

/// External-terminal (xpin) assignment: fixes each pad's grid column to the
/// free boundary column nearest its net's terminal-centre x, one pad per
/// column per side. Mutates the placement's pad sites.
void assign_external_pins(const Netlist& netlist, Placement& placement);

/// Net processing order of the feedthrough assignment: ascending `order`
/// value, wide (multi-pitch) groups first on ties so they still find
/// contiguous columns, then the canonical name-based order
/// (natural_order.hpp). The tie keys — unlike the raw ids — survive a
/// relabeling of the netlist, so the assignment (and everything downstream
/// of it) is invariant under net/cell-id permutation. The name order
/// matters most in the unconstrained baseline, where every key ties and it
/// alone sets the sweep.
[[nodiscard]] std::vector<NetId> feedthrough_net_order(
    const Netlist& netlist, const IdVector<NetId, double>& order);

/// One round of feedthrough assignment. Nets are processed in ascending
/// `order` value (static slack); each net searches outward from the centre
/// of its terminal columns, preferring vertical alignment with the
/// previously assigned row. Fully width-flagged groups are preferred by
/// matching-width nets at equal distance; when `respect_flags` is set,
/// width-flagged columns are only usable by matching-width nets, which
/// prefer them up to 65 columns beyond the nearest usable group — the
/// second-round rule of §4.3. Each query costs near-constant amortized
/// time per probed group (per-row union-finds over the usable columns).
[[nodiscard]] AssignmentOutcome assign_feedthroughs(
    const Netlist& netlist, const Placement& placement,
    const IdVector<NetId, double>& order, bool respect_flags);

/// Full §3.1 + §4.3 pipeline: assign pads, run a first feedthrough round;
/// on shortfall, flag the successful multi-pitch positions, insert feed
/// cells (widening the chip), and re-assign with flags until complete.
/// Returns the final assignment; `placement` is replaced when feed cells
/// were inserted and `netlist` gains the FEED cells. `cancel_requested`
/// (optional) is polled before every round; a true return throws
/// CancelledError.
struct AssignmentPipelineResult {
  FeedthroughAssignment assignment;
  std::int32_t feed_cells_added = 0;
  std::int32_t widen_pitches = 0;
  std::int32_t rounds = 0;
};

[[nodiscard]] AssignmentPipelineResult run_assignment_pipeline(
    Netlist& netlist, Placement& placement,
    const IdVector<NetId, double>& order,
    const std::function<bool()>& cancel_requested = {});

}  // namespace bgr
