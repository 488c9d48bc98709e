#include "bgr/route/assign.hpp"

#include <algorithm>
#include <cstdlib>

#include "bgr/common/check.hpp"
#include "bgr/common/log.hpp"
#include "bgr/common/natural_order.hpp"
#include "bgr/obs/metrics.hpp"
#include "bgr/obs/trace.hpp"

namespace bgr {

std::int32_t net_group_width(const Netlist& netlist, NetId net) {
  const Net& n = netlist.net(net);
  if (n.is_differential()) return n.diff_primary ? 2 : 0;
  return n.pitch_width;
}

namespace {

/// Assignment rounds run (semantic: a pure function of the design).
Counter& assign_rounds() {
  static Counter& c = MetricsRegistry::global().counter(
      "assign.rounds", MetricScope::kSemantic);
  return c;
}

/// Mean terminal column of a net, used as the outward-search centre.
std::int32_t net_center_column(const Netlist& netlist,
                               const Placement& placement, NetId net) {
  std::int64_t sum = 0;
  std::int64_t count = 0;
  for (const TerminalId term : netlist.net_terminals(net)) {
    sum += terminal_geom(netlist, placement, term).column;
    ++count;
  }
  return static_cast<std::int32_t>(sum / std::max<std::int64_t>(count, 1));
}

}  // namespace

std::vector<NetId> feedthrough_net_order(const Netlist& netlist,
                                         const IdVector<NetId, double>& order) {
  std::vector<NetId> nets;
  nets.reserve(static_cast<std::size_t>(netlist.net_count()));
  for (const NetId n : netlist.nets()) nets.push_back(n);
  std::stable_sort(nets.begin(), nets.end(), [&](NetId a, NetId b) {
    if (order.at(a) != order.at(b)) return order.at(a) < order.at(b);
    const std::int32_t wa = netlist.net(a).pitch_width;
    const std::int32_t wb = netlist.net(b).pitch_width;
    if (wa != wb) return wa > wb;
    return processing_order_less(netlist.net(a).name, netlist.net(b).name);
  });
  return nets;
}

namespace {

/// Columns of a pad's window ordered by preference: nearest to the net's
/// cell centroid first, ties toward the left edge.
std::vector<std::int32_t> preferred_columns(const PadSite& site,
                                            std::int32_t center) {
  std::vector<std::int32_t> columns;
  columns.reserve(static_cast<std::size_t>(site.window.hi - site.window.lo) +
                  1);
  for (std::int32_t x = site.window.lo; x <= site.window.hi; ++x) {
    columns.push_back(x);
  }
  std::stable_sort(columns.begin(), columns.end(),
                   [center](std::int32_t a, std::int32_t b) {
                     return std::abs(a - center) < std::abs(b - center);
                   });
  return columns;
}

}  // namespace

void assign_external_pins(const Netlist& netlist, Placement& placement) {
  // Deterministic order: pad terminal id.
  std::vector<TerminalId> pads;
  for (const auto& [pad, site] : placement.pad_sites()) {
    (void)site;
    pads.push_back(pad);
  }
  std::sort(pads.begin(), pads.end());

  // Pads on one side compete for distinct edge columns inside overlapping
  // windows. The nearest-free-column greedy is kept as the primary rule,
  // but it is not complete: a pad pulled toward its net centroid can
  // exhaust a later pad's whole window even when a valid assignment
  // exists. When the greedy strands a pad, Kuhn's augmenting paths with
  // preference-ordered adjacency displace earlier pads just enough to
  // admit it.
  std::vector<std::vector<std::int32_t>> prefs(pads.size());
  // owner_top/bot[x]: index into `pads` currently holding column x.
  const auto npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner_top(
      static_cast<std::size_t>(placement.width()), npos);
  std::vector<std::size_t> owner_bot(owner_top);

  for (std::size_t i = 0; i < pads.size(); ++i) {
    const PadSite& site = placement.pad_site(pads[i]);
    // Centre over the net's cell terminals (pads excluded to avoid the
    // chicken-and-egg on unassigned pads).
    const NetId net = netlist.terminal(pads[i]).net;
    std::int64_t sum = 0;
    std::int64_t count = 0;
    for (const TerminalId term : netlist.net_terminals(net)) {
      if (netlist.terminal(term).kind != TerminalKind::kCellPin) continue;
      sum += terminal_geom(netlist, placement, term).column;
      ++count;
    }
    const std::int32_t center =
        count > 0 ? static_cast<std::int32_t>(sum / count)
                  : (site.window.lo + site.window.hi) / 2;
    prefs[i] = preferred_columns(site, center);
  }

  std::vector<char> visited(pads.size(), 0);
  auto augment = [&](auto&& self, std::size_t i,
                     std::vector<std::size_t>& owner) -> bool {
    visited[i] = 1;
    for (const std::int32_t x : prefs[i]) {
      const auto col = static_cast<std::size_t>(x);
      if (owner[col] == npos ||
          (!visited[owner[col]] && self(self, owner[col], owner))) {
        owner[col] = i;
        placement.pad_site(pads[i]).assigned_x = x;
        return true;
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < pads.size(); ++i) {
    auto& owner = placement.pad_site(pads[i]).top ? owner_top : owner_bot;
    bool placed = false;
    for (const std::int32_t x : prefs[i]) {
      if (owner[static_cast<std::size_t>(x)] != npos) continue;
      owner[static_cast<std::size_t>(x)] = i;
      placement.pad_site(pads[i]).assigned_x = x;
      placed = true;
      break;
    }
    if (placed) continue;
    std::fill(visited.begin(), visited.end(), 0);
    BGR_CHECK_MSG(augment(augment, i, owner),
                  "no free pad column in window");
  }
}

namespace {

/// A shrinking set of one row's columns that answers "nearest member at or
/// right of x" and "at or left of x" in near-constant amortized time. Each
/// direction is a union-find whose representative of x is the nearest
/// member on that side; erasing a column links it to its neighbour and the
/// lookups halve their paths. Members only ever leave (taken columns), so
/// no link has to be undone.
class ColumnSet {
 public:
  template <typename Member>
  ColumnSet(std::int32_t width, Member&& member) : width_(width) {
    bool any = false;
    for (std::int32_t x = 0; x < width && !any; ++x) any = member(x);
    if (!any) return;  // empty: no arrays, every lookup misses
    // right_[x] for x ∈ [0, width], sentinel `width`; left_[x + 1] for
    // x ∈ [-1, width - 1], sentinel column -1 at index 0.
    right_.resize(static_cast<std::size_t>(width) + 1);
    left_.resize(static_cast<std::size_t>(width) + 1);
    right_.back() = width;
    left_.front() = 0;
    for (std::int32_t x = 0; x < width; ++x) {
      const bool in = member(x);
      right_[static_cast<std::size_t>(x)] = in ? x : x + 1;
      left_[static_cast<std::size_t>(x) + 1] = in ? x + 1 : x;
    }
  }

  [[nodiscard]] bool contains(std::int32_t x) const {
    return !right_.empty() && right_[static_cast<std::size_t>(x)] == x;
  }
  /// Smallest member ≥ x, or `width` when none.
  [[nodiscard]] std::int32_t right(std::int32_t x) {
    if (right_.empty() || x >= width_) return width_;
    return find(right_, x);
  }
  /// Largest member ≤ x, or -1 when none.
  [[nodiscard]] std::int32_t left(std::int32_t x) {
    if (left_.empty() || x < 0) return -1;
    return find(left_, x + 1) - 1;
  }
  void erase(std::int32_t x) {
    if (!contains(x)) return;
    right_[static_cast<std::size_t>(x)] = x + 1;
    left_[static_cast<std::size_t>(x) + 1] = x;
  }

  /// Nearest start s ≥ x of a group of `w` member columns fitting the row.
  [[nodiscard]] std::int32_t group_right(std::int32_t x, std::int32_t w) {
    for (std::int32_t s = right(x); s + w <= width_;) {
      // The rightmost missing column c rules out every start up to c.
      std::int32_t miss = -1;
      for (std::int32_t c = s + w - 1; c > s; --c) {
        if (!contains(c)) {
          miss = c;
          break;
        }
      }
      if (miss < 0) return s;
      s = right(miss + 1);
    }
    return -1;
  }
  /// Nearest start s ≤ x of a group of `w` member columns fitting the row.
  [[nodiscard]] std::int32_t group_left(std::int32_t x, std::int32_t w) {
    for (std::int32_t s = left(std::min(x, width_ - w)); s >= 0;) {
      // The leftmost missing column c rules out every start down to c-w+1.
      std::int32_t miss = -1;
      for (std::int32_t c = s + 1; c < s + w; ++c) {
        if (!contains(c)) {
          miss = c;
          break;
        }
      }
      if (miss < 0) return s;
      s = left(miss - w);
    }
    return -1;
  }

 private:
  static std::int32_t find(std::vector<std::int32_t>& parent, std::int32_t x) {
    auto at = [&](std::int32_t i) -> std::int32_t& {
      return parent[static_cast<std::size_t>(i)];
    };
    while (at(x) != x) {
      at(x) = at(at(x));
      x = at(x);
    }
    return x;
  }

  std::int32_t width_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> left_;
};

/// One round's column bookkeeping for the §3.1 feedthrough search. A group
/// of `w` columns starting at x is *usable* when every column is in bounds,
/// unblocked, untaken and — when flags are respected — flagged 0 or w; it
/// is *flagged* when every column carries flag w. Blocked columns and flags
/// are fixed within a round and taken columns only grow, so per row the
/// usable columns of each width class and the flag-w columns are kept as
/// ColumnSets, built on a row's first query for that class.
class ColumnIndex {
 public:
  ColumnIndex(const Placement& placement, bool respect_flags)
      : placement_(placement),
        respect_flags_(respect_flags),
        rows_(static_cast<std::size_t>(placement.row_count())) {}

  /// The §3.1 choice for a w-pitch group in `row`: `prefer` when usable;
  /// otherwise the nearest usable group U and the nearest flagged group F
  /// (left wins distance ties), and F whenever dist(F) ≤ dist(U) + slack.
  /// The slack reproduces the bounded outward scan this replaces: without
  /// flag rules it stopped at U's distance; with them it went on while
  /// d ≤ dist(U) + 65 (it evaluated d before testing d > dist(U) + 64).
  /// Returns -1 when the row has no usable group.
  std::int32_t find_group(RowId row, std::int32_t center, std::int32_t w,
                          std::int32_t prefer) {
    const std::int32_t width = placement_.width();
    ColumnSet& usable = set(row, respect_flags_ ? w : 0);
    if (prefer >= 0 && prefer + w <= width) {
      bool ok = true;
      for (std::int32_t c = prefer; c < prefer + w && ok; ++c) {
        ok = usable.contains(c);
      }
      if (ok) return prefer;
    }
    const std::int32_t u = nearest(usable, center, w);
    if (u < 0) return -1;
    // set() may append to the row's set list: `usable` is dead from here.
    const std::int32_t f = nearest(set(row, -w), center, w);
    const std::int64_t slack = respect_flags_ ? 65 : 0;
    if (f >= 0 && std::abs(f - center) <= std::abs(u - center) + slack) {
      return f;
    }
    return u;
  }

  /// Marks columns x..x+w-1 of `row` taken.
  void take(RowId row, std::int32_t x, std::int32_t w) {
    Row& r = rows_[static_cast<std::size_t>(row.value())];
    if (r.taken.empty()) {
      r.taken.assign(static_cast<std::size_t>(placement_.width()), false);
    }
    for (std::int32_t c = x; c < x + w; ++c) {
      r.taken[static_cast<std::size_t>(c)] = true;
      for (auto& [key, s] : r.sets) s.erase(c);
    }
  }

 private:
  struct Row {
    std::vector<bool> taken;  // empty until the row's first take
    /// key ≥ 0: columns usable for width class `key` (0 = flags ignored);
    /// key < 0: free columns flagged −key.
    std::vector<std::pair<std::int32_t, ColumnSet>> sets;
  };

  static std::int32_t nearest(ColumnSet& s, std::int32_t center,
                              std::int32_t w) {
    const std::int32_t l = s.group_left(center, w);
    const std::int32_t r = s.group_right(std::max(center, 0), w);
    if (l < 0) return r;
    if (r < 0) return l;
    return center - l <= r - center ? l : r;
  }

  ColumnSet& set(RowId row, std::int32_t key) {
    Row& r = rows_[static_cast<std::size_t>(row.value())];
    for (auto& [k, s] : r.sets) {
      if (k == key) return s;
    }
    auto member = [&](std::int32_t x) {
      if (placement_.column_blocked(row, x)) return false;
      if (!r.taken.empty() && r.taken[static_cast<std::size_t>(x)]) {
        return false;
      }
      const std::int32_t flag = placement_.column_flag(row, x);
      if (key < 0) return flag == -key;
      return key == 0 || flag == 0 || flag == key;
    };
    r.sets.emplace_back(key, ColumnSet(placement_.width(), member));
    return r.sets.back().second;
  }

  const Placement& placement_;
  bool respect_flags_;
  std::vector<Row> rows_;
};

AssignmentOutcome assign_round(const Netlist& netlist,
                               const Placement& placement,
                               const std::vector<NetId>& nets,
                               bool respect_flags) {
  AssignmentOutcome outcome{
      FeedthroughAssignment(netlist.net_count()),
      FeedDemand(placement.row_count()),
      0};
  ColumnIndex columns(placement, respect_flags);

  // Two sweeps in net order: required crossings first (their failures
  // drive feed-cell insertion), then optional crossings from the leftover
  // columns (failures only cost routing freedom, never completeness).
  for (const bool required_sweep : {true, false}) {
    for (const NetId net : nets) {
      const std::int32_t w = net_group_width(netlist, net);
      if (w == 0) continue;  // differential shadow rides with its primary
      const NetSpan span = net_span(netlist, placement, net);
      if (span.row_hi() < span.row_lo()) continue;  // single-channel net
      const std::int32_t center = net_center_column(netlist, placement, net);
      std::int32_t prev = -1;
      for (std::int32_t r = span.row_lo(); r <= span.row_hi(); ++r) {
        if (span.row_required(r) != required_sweep) continue;
        const RowId row{r};
        const std::int32_t x = columns.find_group(row, center, w, prev);
        if (x < 0) {
          if (required_sweep) {
            outcome.demand.add_failure(row, w);
          } else {
            ++outcome.optional_failures;
          }
          continue;
        }
        columns.take(row, x, w);
        outcome.assignment.set(net, r, x);
        prev = x;
      }
    }
  }
  return outcome;
}

}  // namespace

AssignmentOutcome assign_feedthroughs(const Netlist& netlist,
                                      const Placement& placement,
                                      const IdVector<NetId, double>& order,
                                      bool respect_flags) {
  return assign_round(netlist, placement, feedthrough_net_order(netlist, order),
                      respect_flags);
}

AssignmentPipelineResult run_assignment_pipeline(
    Netlist& netlist, Placement& placement,
    const IdVector<NetId, double>& order,
    const std::function<bool()>& cancel_requested) {
  {
    ScopedSpan span("assign_external_pins", "setup");
    assign_external_pins(netlist, placement);
  }

  AssignmentPipelineResult result{FeedthroughAssignment(netlist.net_count()), 0,
                                  0, 0};
  // Feed insertion adds cells only, so the net order holds for every round.
  const std::vector<NetId> nets = feedthrough_net_order(netlist, order);
  auto round = [&](std::int32_t index, bool respect_flags) {
    if (cancel_requested && cancel_requested()) {
      throw CancelledError(
          "route cancelled before feedthrough assignment round " +
          std::to_string(index));
    }
    ScopedSpan span("assign_feedthroughs", "setup");
    ++result.rounds;
    assign_rounds().add(1);
    return assign_round(netlist, placement, nets, respect_flags);
  };
  constexpr std::int32_t kMaxRounds = 10;
  for (std::int32_t r = 0; r < kMaxRounds; ++r) {
    AssignmentOutcome outcome = round(r, /*respect_flags=*/r > 0);
    if (outcome.complete()) {
      result.assignment = std::move(outcome.assignment);
      return result;
    }
    // Flag the positions where multi-pitch nets succeeded so the re-run
    // cannot give them away (§4.3), then cancel and insert feed cells.
    placement.clear_column_flags();
    for (const NetId net : netlist.nets()) {
      const std::int32_t w = net_group_width(netlist, net);
      if (w < 2) continue;
      for (const auto& [row, col] : outcome.assignment.rows(net)) {
        for (std::int32_t c = col; c < col + w; ++c) {
          placement.set_column_flag(RowId{row}, c, w);
        }
      }
    }
    ScopedSpan span("insert_feed_cells", "setup");
    FeedInsertionResult inserted =
        insert_feed_cells(netlist, placement, outcome.demand);
    log_info("feed insertion round " + std::to_string(r) + ": +" +
             std::to_string(inserted.feed_cells_added) + " feed cells, chip +" +
             std::to_string(inserted.widen_pitches) + " pitches");
    result.feed_cells_added += inserted.feed_cells_added;
    result.widen_pitches += inserted.widen_pitches;
    placement = std::move(inserted.placement);
  }
  // Final attempt; by construction reserved capacity now suffices.
  AssignmentOutcome outcome = round(kMaxRounds, /*respect_flags=*/true);
  BGR_CHECK_MSG(outcome.complete(),
                "feedthrough assignment incomplete after feed-cell insertion");
  result.assignment = std::move(outcome.assignment);
  return result;
}

}  // namespace bgr
